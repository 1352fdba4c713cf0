package sim

import (
	"errors"
	"strings"
	"testing"
)

// TestFlightRecorderCapture runs a small simulation and checks the recorder
// saw the expected action kinds in virtual-time order.
func TestFlightRecorderCapture(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	fr := NewFlightRecorder(64)
	e.SetFlightRecorder(fr)
	e.Spawn("a", func(p *Proc) {
		p.Advance(3)
		p.Advance(5)
	})
	e.After(4, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	entries := fr.snapshot()
	if len(entries) == 0 {
		t.Fatal("no entries recorded")
	}
	var kinds []flightKind
	last := Time(-1)
	for i, en := range entries {
		kinds = append(kinds, en.kind)
		if en.at < last {
			t.Fatalf("entry %d time went backwards: %v after %v", i, en.at, last)
		}
		last = en.at
		if en.seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d, want %d", i, en.seq, i+1)
		}
	}
	want := []flightKind{flightSpawn, flightEvent, flightPark, flightEvent, flightPark, flightCallback, flightEvent}
	if len(kinds) != len(want) {
		t.Fatalf("recorded %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("entry %d is %v, want %v (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
}

// TestFlightRecorderRing checks the ring keeps only the newest entries and
// Total keeps counting past the wrap.
func TestFlightRecorderRing(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		fr.record(Time(i), flightEvent, "p", "", -1)
	}
	if fr.Total() != 10 {
		t.Fatalf("total = %d, want 10", fr.Total())
	}
	entries := fr.snapshot()
	if len(entries) != 4 {
		t.Fatalf("retained %d entries, want 4", len(entries))
	}
	for i, en := range entries {
		if en.at != Time(6+i) || en.seq != uint64(7+i) {
			t.Fatalf("entry %d = {at %v seq %d}, want {at %v seq %d}", i, en.at, en.seq, Time(6+i), 7+i)
		}
	}
}

// TestFlightRecorderStopAndInterrupt checks that hard-fault machinery and an
// error stop land in the ring (the post-mortem content chaos dumps rely on).
func TestFlightRecorderStopAndInterrupt(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	fr := NewFlightRecorder(0) // default depth
	e.SetFlightRecorder(fr)
	g := NewGate("never")
	victim := e.Spawn("victim", func(p *Proc) {
		g.Wait(p)
	})
	e.Spawn("killer", func(p *Proc) {
		p.Advance(10)
		victim.interrupt(errors.New("poisoned"))
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected the interrupted wait to abort the run")
	}
	var sawInterrupt, sawStop bool
	for _, en := range fr.snapshot() {
		switch en.kind {
		case flightInterrupt:
			sawInterrupt = true
			if en.proc != "victim" || !strings.Contains(en.note, "poisoned") {
				t.Fatalf("interrupt entry wrong: %+v", en)
			}
		case flightStop:
			sawStop = true
			if !strings.Contains(en.note, "poisoned") {
				t.Fatalf("stop entry missing error text: %+v", en)
			}
		}
	}
	if !sawInterrupt || !sawStop {
		t.Fatalf("missing interrupt/stop entries: interrupt=%v stop=%v", sawInterrupt, sawStop)
	}

	var b strings.Builder
	if err := fr.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"flight recorder:", "interrupt", "victim", "stop"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestFlightRecorderDeterministic runs the same simulation twice and
// byte-compares the dumps: everything recorded is virtual-time state.
func TestFlightRecorderDeterministic(t *testing.T) {
	run := func() string {
		e := NewEngine()
		defer e.Close()
		fr := NewFlightRecorder(32)
		e.SetFlightRecorder(fr)
		c := NewCounter("steps", 0)
		e.Spawn("sender", func(p *Proc) {
			for i := 0; i < 8; i++ {
				p.Advance(2)
				c.Add(e, 1)
			}
		})
		e.Spawn("receiver", func(p *Proc) {
			for i := uint64(1); i <= 8; i++ {
				c.WaitGE(p, i)
				p.Advance(1)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := fr.Dump(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("flight dumps differ between identical runs:\n--- a\n%s--- b\n%s", a, b)
	}
}

// TestFlightRecorderZeroAlloc pins the recording cost: steady-state Advance
// with the recorder installed must still allocate nothing (the ring is
// preallocated and only static strings are stored).
func TestFlightRecorderZeroAlloc(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.SetFlightRecorder(NewFlightRecorder(128))
	const iters = 2000
	var avg float64
	e.Spawn("adv", func(p *Proc) {
		p.Advance(1) // reach steady state before measuring
		avg = testing.AllocsPerRun(iters, func() {
			p.Advance(1)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("Advance with flight recording allocates %.2f objects/op, want 0", avg)
	}
}
