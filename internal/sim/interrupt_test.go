package sim

import (
	"errors"
	"fmt"
	"testing"
)

// An interrupt delivered to a process parked on a gate aborts the wait with
// the poisoned error, and a later Fire must not double-wake the waiter.
func TestInterruptCancelsGateWait(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	g := NewGate("never")
	want := errors.New("poisoned")
	var got error
	var abortedAt Time
	victim := eng.Spawn("waiter", func(p *Proc) {
		got = Protect(func() { g.Wait(p) })
		abortedAt = p.Now()
		p.Advance(5)
	})
	eng.Spawn("killer", func(p *Proc) {
		p.Advance(10)
		victim.interrupt(want)
		p.Advance(10)
		g.Fire(p.eng) // no waiters left; must not double-wake
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != want {
		t.Fatalf("Protect returned %v, want %v", got, want)
	}
	if abortedAt != 10 {
		t.Fatalf("abort delivered at %v, want 10ns", abortedAt)
	}
}

// An interrupt hitting a process inside Advance (not interruptible) is
// deferred to the next interruptible wait.
func TestInterruptDeferredPastAdvance(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	c := NewCounter("cnt", 0)
	want := errors.New("late poison")
	var got error
	var at Time
	victim := eng.Spawn("worker", func(p *Proc) {
		p.Advance(100) // interrupt arrives here, must not cut this short
		got = Protect(func() { c.WaitGE(p, 1) })
		at = p.Now()
	})
	eng.Spawn("poisoner", func(p *Proc) {
		p.Advance(10)
		victim.interrupt(want)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != want {
		t.Fatalf("Protect returned %v, want %v", got, want)
	}
	if at != 100 {
		t.Fatalf("delivered at %v, want 100ns (end of Advance)", at)
	}
}

// ClearInterrupt discards an undelivered poison.
func TestClearInterrupt(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	g := NewGate("g")
	victim := eng.Spawn("worker", func(p *Proc) {
		p.Advance(50)
		if p.pendingErr == nil {
			t.Error("expected pending interrupt after Advance")
		}
		p.ClearInterrupt()
		g.Wait(p) // already fired by then; must not abort
	})
	eng.Spawn("other", func(p *Proc) {
		p.Advance(10)
		victim.interrupt(errors.New("stale"))
		g.Fire(p.eng)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// Kill unwinds a parked process silently: the run completes cleanly and the
// primitive it was parked on is not left with a stale waiter.
func TestKillUnwindsParkedProcess(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	g := NewGate("g")
	reached := false
	victim := eng.Spawn("victim", func(p *Proc) {
		g.Wait(p)
		reached = true
	})
	eng.Spawn("killer", func(p *Proc) {
		p.Advance(10)
		victim.Kill()
		p.Advance(10)
		g.Fire(p.eng)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if reached {
		t.Fatal("killed process ran past its park")
	}
}

// Kill takes effect at the next scheduling point even when the victim is
// mid-Advance (wake already pending), and killing before first scheduling
// prevents the body from running at all.
func TestKillDuringAdvanceAndBeforeStart(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	advanced := false
	victim := eng.Spawn("victim", func(p *Proc) {
		p.Advance(100)
		advanced = true
	})
	var neverRan *Proc
	bodyRan := false
	eng.Spawn("killer", func(p *Proc) {
		p.Advance(10)
		victim.Kill()
		neverRan = p.eng.spawnAt(p.Now().Add(50), "unborn", func(q *Proc) {
			bodyRan = true
		}, false)
		neverRan.Kill()
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if advanced {
		t.Fatal("killed process survived Advance")
	}
	if bodyRan {
		t.Fatal("process killed before start still ran")
	}
}

// A killed party is deregistered from a rendezvous, so survivors plus a
// replacement arrival can still complete the barrier.
func TestKillDropsRendezvousParty(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	r := NewRendezvous("barrier", 3)
	done := 0
	var victim *Proc
	victim = eng.Spawn("a", func(p *Proc) {
		r.Arrive(p)
		done++
	})
	eng.Spawn("b", func(p *Proc) {
		p.Advance(5)
		r.Arrive(p)
		done++
	})
	eng.Spawn("c", func(p *Proc) {
		p.Advance(10)
		victim.Kill()
		p.Advance(10)
		r.Arrive(p) // second arrival after drop
		done++
	})
	eng.Spawn("d", func(p *Proc) {
		p.Advance(30)
		r.Arrive(p) // third arrival completes the barrier
		done++
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if done != 3 {
		t.Fatalf("%d parties completed, want 3 (killed one must not)", done)
	}
}

// An Abort with no Protect terminates the process and surfaces from Run as a
// wrapped error that errors.As can unpack.
func TestAbortSurfacesFromRun(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	eng.Spawn("rank0", func(p *Proc) {
		Abort(&RankFailedError{Rank: 3, At: 42})
	})
	err := eng.Run()
	if err == nil {
		t.Fatal("expected error from Run")
	}
	var rf *RankFailedError
	if !errors.As(err, &rf) {
		t.Fatalf("errors.As failed on %v", err)
	}
	if rf.Rank != 3 || rf.At != 42 {
		t.Fatalf("got %+v", rf)
	}
}

// InterruptAll poisons every live process; each receives the error exactly
// once at its next interruptible wait.
func TestInterruptAll(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	g := NewGate("g")
	ferr := &RankFailedError{Rank: 1, At: 10}
	var got []error
	for i := 0; i < 3; i++ {
		eng.Spawn(fmt.Sprintf("rank%d", i), func(p *Proc) {
			got = append(got, Protect(func() { g.Wait(p) }))
		})
	}
	eng.After(10, func() { eng.InterruptAll(ferr) })
	if err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("%d procs reported, want 3", len(got))
	}
	for i, err := range got {
		var rf *RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 1 {
			t.Fatalf("proc %d got %v", i, err)
		}
	}
}

// A Mailbox wait is not interruptible (daemon idle loops keep serving), but
// the poison is still held for the next interruptible wait.
func TestMailboxWaitNotInterruptible(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	mb := NewMailbox[int]("ops")
	var gotItem int
	daemon := eng.SpawnDaemon("stream", func(p *Proc) {
		gotItem = take(p, mb)
	})
	eng.Spawn("driver", func(p *Proc) {
		p.Advance(10)
		daemon.interrupt(errors.New("revoked"))
		p.Advance(10)
		mb.Put(p.eng, 7)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if gotItem != 7 {
		t.Fatalf("daemon got %d, want 7 (interrupt must not cancel Get)", gotItem)
	}
}

// TimeoutError still unwraps through a fmt.Errorf("%w") chain, the wrap
// style used across the backends.
func TestTimeoutErrorUnwraps(t *testing.T) {
	base := &TimeoutError{Deadline: 100, At: 200}
	wrapped := fmt.Errorf("bench: latency: %w", fmt.Errorf("launch: %w", base))
	var te *TimeoutError
	if !errors.As(wrapped, &te) {
		t.Fatalf("errors.As failed on %v", wrapped)
	}
	if te.Deadline != 100 {
		t.Fatalf("got %+v", te)
	}
}
