package sim

import (
	"errors"
	"testing"
)

// staleProcs counts the slots past a waiter slice's length that still point
// at a process.
func staleProcs(ws []*Proc) int {
	n := 0
	for _, w := range ws[len(ws):cap(ws)] {
		if w != nil {
			n++
		}
	}
	return n
}

// TestStaleWaiterSlotsAreCleared: a waiter that leaves a primitive's queue —
// killed, interrupted, or released — must not stay reachable from the slots
// past the queue's length, where the finished process (and, for a Counter,
// its predicate closure) would outlive the wait. mpi's
// TestStaleQueueSlotsAreCleared pins the same property for its queues.
//
// Four waiters park at t=0; at t=10 waiter 0 (a Gate's inline slot) is
// killed and waiter 2 interrupted, then the primitive releases waiter 1; the
// rest go at t=20.
func TestStaleWaiterSlotsAreCleared(t *testing.T) {
	g := NewGate("g")
	c := NewCounter("c", 0)
	m := NewMailbox[int]("m")
	r := NewRendezvous("r", 5)
	for _, tc := range []struct {
		name             string
		wait             func(p *Proc, i int)
		release, finally func(e *Engine)
		stale            func() int
	}{
		{"gate", func(p *Proc, _ int) { g.Wait(p) },
			func(e *Engine) { g.Fire(e) }, func(*Engine) {},
			func() int { return staleProcs(g.waiters) }},
		{"counter", func(p *Proc, i int) { c.WaitGE(p, uint64(i+1)) },
			func(e *Engine) { c.Add(e, 2) }, func(e *Engine) { c.Add(e, 10) },
			func() int {
				n := 0
				for _, w := range c.waiters[len(c.waiters):cap(c.waiters)] {
					if w.p != nil || w.pred != nil {
						n++
					}
				}
				return n
			}},
		// Get is not interruptible: waiter 2 stays queued until a Put.
		{"mailbox", func(p *Proc, _ int) { take(p, m) },
			func(e *Engine) { m.Put(e, 0) }, func(e *Engine) { m.Put(e, 0); m.Put(e, 0) },
			func() int { return staleProcs(m.waiters) }},
		// Waiters 1 and 3 plus three late arrivals make the five parties.
		{"rendezvous", func(p *Proc, _ int) { r.Arrive(p) },
			func(e *Engine) {
				for i := 0; i < 3; i++ {
					e.Spawn("late", func(p *Proc) { r.Arrive(p) })
				}
			}, func(*Engine) {},
			func() int { return staleProcs(r.arrived) }},
	} {
		eng := NewEngine()
		var ws []*Proc
		for i := 0; i < 4; i++ {
			ws = append(ws, eng.Spawn("waiter", func(p *Proc) {
				Protect(func() { tc.wait(p, i) })
			}))
		}
		check := func(after string) {
			if n := tc.stale(); n > 0 {
				t.Errorf("%s: %d slot(s) past the queue still hold a waiter after %s", tc.name, n, after)
			}
		}
		eng.Spawn("driver", func(p *Proc) {
			p.Advance(10)
			ws[0].Kill()
			check("kill")
			ws[2].interrupt(errors.New("revoked"))
			check("interrupt")
			tc.release(p.Engine())
			p.Advance(5)
			check("release")
			p.Advance(5)
			tc.finally(p.Engine())
		})
		if err := eng.Run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		check("the run")
		eng.Close()
	}
}
