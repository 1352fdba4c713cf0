package gpu

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// The stream daemon serves step operations in its own event slots; these
// tests pin what that must not change: order, times, crashes and aborts.

// timed is a step op of d that logs when it starts and ends.
func timed(log *[]string, name string, d sim.Duration) func(p *sim.Proc) sim.Duration {
	started := false
	return func(p *sim.Proc) sim.Duration {
		if !started {
			started = true
			*log = append(*log, fmt.Sprintf("%s start %v", name, p.Now()))
			return d
		}
		*log = append(*log, fmt.Sprintf("%s end %v", name, p.Now()))
		return sim.StepResume
	}
}

// put is a step op shaped like a GPUSHMEM host put: it waits on a gate that
// a delivery callback fires at 100us.
func put(eng *sim.Engine) func(p *sim.Proc) sim.Duration {
	var done sim.Gate
	done.SetLabel("gate put")
	eng.After(100*sim.Microsecond, func() { done.Fire(eng) })
	return func(p *sim.Proc) sim.Duration {
		if !done.Enlist(p) {
			return sim.StepEnlisted
		}
		return sim.StepResume
	}
}

// TestStreamStepSemantics: a crash stops the stream wherever its daemon is —
// idle, inside a timed op, enlisted on a put's gate — and no later op runs; an
// interrupt where an op waits aborts that op alone, TakeAborted reports it and
// later ops run on; a kernel whose body may block, between step ops, keeps
// its place in FIFO order and the times of its neighbours.
func TestStreamStepSemantics(t *testing.T) {
	const us = sim.Microsecond
	revoke := &sim.RankFailedError{Rank: 1}
	for _, tc := range []struct {
		name  string
		at    sim.Duration // when fault strikes
		fault func(eng *sim.Engine, dev *Device)
		idle  bool // ops are enqueued at 20us, after the fault; else at 0
		put   bool // a put in flight until 100us goes first
		drain bool // the fault spares the stream: the host waits for it to drain
		want  []string
	}{
		{name: "crash idle", at: 10 * us, idle: true,
			fault: func(_ *sim.Engine, dev *Device) { dev.Crash() }},
		{name: "crash mid-timed op", at: 15 * us,
			fault: func(_ *sim.Engine, dev *Device) { dev.Crash() },
			want:  []string{"a start 0ns"}},
		{name: "crash enlisted on a put", at: 30 * us, put: true,
			fault: func(_ *sim.Engine, dev *Device) { dev.Crash() }},
		{name: "interrupt enlisted on a put", at: 30 * us, put: true, drain: true,
			fault: func(eng *sim.Engine, _ *Device) { eng.InterruptAll(revoke) },
			want:  []string{"a start 30us", "a end 50us", "b start 50us", "b end 51us"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, eng := newTestCluster(t, 1)
			dev := c.Devices[0]
			s := dev.DefaultStream()
			var log []string
			var aborted error
			eng.Spawn("host", func(p *sim.Proc) {
				if tc.idle {
					p.Advance(20 * us)
				}
				if tc.put {
					s.EnqueueStep("put", put(eng), nil)
				}
				s.EnqueueStep("a", timed(&log, "a", 20*us), nil)
				s.EnqueueStep("b", timed(&log, "b", us), nil)
				if !tc.drain {
					return // a crashed stream never drains
				}
				sim.Protect(func() { s.Synchronize(p) }) // the revoke reaches the host too
				s.Synchronize(p)
				aborted = s.TakeAborted()
			})
			eng.After(tc.at, func() { tc.fault(eng, dev) })
			if err := eng.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if fmt.Sprint(log) != fmt.Sprint(tc.want) {
				t.Errorf("ops ran %q, want %q", log, tc.want)
			}
			switch {
			case !tc.drain && s.Pending() == 0:
				t.Error("a crashed stream completed its queue")
			case tc.drain && !errors.Is(aborted, revoke):
				t.Errorf("TakeAborted = %v, want the revoke", aborted)
			}
		})
	}

	t.Run("blocking body between steps", func(t *testing.T) {
		c, eng := newTestCluster(t, 1)
		s := c.Devices[0].DefaultStream()
		var log []string
		var launched sim.Time
		eng.Spawn("host", func(p *sim.Proc) {
			s.EnqueueStep("a", timed(&log, "a", 20*us), nil)
			s.Launch(p, &Kernel{
				Name: "blocking",
				Time: func(*Device) sim.Duration { return 7 * us },
				Body: func(kc *KernelCtx) {
					log = append(log, fmt.Sprintf("body start %v", kc.P.Now()))
					kc.P.Advance(5 * us)
					log = append(log, fmt.Sprintf("body end %v", kc.P.Now()))
				},
			}, nil)
			launched = p.Now()
			s.EnqueueStep("c", timed(&log, "c", 3*us), nil)
			s.Synchronize(p)
			if s.Pending() != 0 {
				t.Errorf("pending = %d after sync", s.Pending())
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if launched >= sim.Time(20*us) {
			t.Fatalf("the launch took the host to %v: the times below assume it returns first", launched)
		}
		want := []string{"a start 0ns", "a end 20us", "body start 20us", "body end 25us", "c start 32us", "c end 35us"}
		if fmt.Sprint(log) != fmt.Sprint(want) {
			t.Errorf("ops ran %q, want %q", log, want)
		}
	})
}

// TestEventRerecordWaitsForLatest: re-recording an event before its previous
// record has completed supersedes that record, as cudaEventRecord does.
// Synchronize waits for the latest record — on the same stream, and on
// another stream that reaches it first — and a stale record completing later
// leaves At alone.
func TestEventRerecordWaitsForLatest(t *testing.T) {
	const us = sim.Microsecond
	work := func(d sim.Duration) func(p *sim.Proc) { return func(p *sim.Proc) { p.Advance(d) } }
	for _, tc := range []struct {
		name       string
		twoStreams bool
		want       sim.Time // when Synchronize returns, and At
	}{
		{"same stream", false, sim.Time(20 * us)},
		{"two streams", true, sim.Time(10 * us)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, eng := newTestCluster(t, 1)
			dev := c.Devices[0]
			s1, s2 := dev.DefaultStream(), dev.DefaultStream()
			first := 10 * us
			if tc.twoStreams {
				s2, first = dev.NewStream("other"), 30*us
			}
			eng.Spawn("host", func(p *sim.Proc) {
				e := NewEvent("e")
				s1.Enqueue("work", work(first))
				e.Record(s1)
				s2.Enqueue("work", work(10*us))
				e.Record(s2)
				e.Synchronize(p)
				if p.Now() != tc.want || e.At() != tc.want {
					t.Errorf("Synchronize returned at %v with At %v, want both at the latest record, %v", p.Now(), e.At(), tc.want)
				}
				s1.Synchronize(p)
				if e.At() != tc.want {
					t.Errorf("after every record completed At = %v, want the latest record's %v", e.At(), tc.want)
				}
				e.Synchronize(p)
				if p.Now() != sim.Time(max(first, 20*us)) {
					t.Errorf("Synchronize on a completed record waited until %v", p.Now())
				}
			})
			if err := eng.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}
