package sim

import (
	"bytes"
	"slices"
	"testing"
)

// TestShift moves a running simulation 100 ns later from inside a process:
// the state relative to now encodes the same before and after, and every
// pending wake and callback lands 100 ns later, in its order.
func TestShift(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var woke []Time
	for _, d := range []Duration{30, 10, 20} {
		e.Spawn("sleeper", func(p *Proc) {
			p.Advance(d)
			woke = append(woke, p.Now())
		})
	}
	e.Spawn("shifter", func(p *Proc) {
		p.Advance(5)
		e.After(7, func() { woke = append(woke, e.Now()) })
		before, ok := e.AppendState(nil)
		e.Shift(100)
		after, ok2 := e.AppendState(nil)
		if !ok || !ok2 || !bytes.Equal(before, after) {
			t.Errorf("state before the shift %x (ok %v), after %x (ok %v)", before, ok, after, ok2)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{110, 112, 120, 130}; !slices.Equal(woke, want) {
		t.Errorf("woke at %v, want %v", woke, want)
	}

	w := NewEngine()
	defer w.Close()
	w.SetWatchdog(1000)
	if _, ok := w.AppendState(nil); ok {
		t.Error("AppendState under a watchdog reported ok")
	}
}

// TestSkipFreeNow: Shift moves Now but not the skip-free clock, and a
// timeline's busy time repeats what it gained since a mark, while Shift
// moves only its horizon.
func TestSkipFreeNow(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	tl := NewTimeline("port")
	e.Spawn("shifter", func(p *Proc) {
		p.Advance(5)
		ReserveMulti(p.Now(), 10, tl)
		mark := tl.BusySum()
		ReserveMulti(p.Now(), 4, tl)
		e.Shift(100)
		tl.Shift(100)
		tl.RepeatBusy(mark, 3)
		p.Advance(2)
		if e.Now() != 107 || e.SkipFreeNow() != 7 {
			t.Errorf("now %d, skip-free %d; want 107, 7", e.Now(), e.SkipFreeNow())
		}
		if tl.BusyUntil() != 119 || tl.BusySum() != 26 {
			t.Errorf("port busy until %d for %d; want 119 for 26", tl.BusyUntil(), tl.BusySum())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendStateAllocs pins a digest of a warm engine at zero allocations:
// a fast-forwarded loop takes one at every loop head.
func TestAppendStateAllocs(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	for i := range 8 {
		e.Spawn("sleeper", func(p *Proc) { p.Advance(Duration(10 + i%3)) })
	}
	e.Spawn("digest", func(p *Proc) {
		p.Advance(1)
		e.After(5, func() {})
		b, _ := e.AppendState(nil)
		if n := testing.AllocsPerRun(100, func() { b, _ = e.AppendState(b[:0]) }); n != 0 {
			t.Errorf("AppendState allocated %v times a call on a warm engine", n)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
