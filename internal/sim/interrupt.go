package sim

// Hard-fault delivery: the machinery that turns "peer of a crashed rank
// parks forever" into a typed error raised inside the blocked operation.
//
// Two delivery mechanisms exist, used by the failure detector in
// internal/core:
//
//   - Interrupt(err) poisons a process: the error is raised (as an abort
//     unwind, catchable with Protect) at the process's current or next
//     interruptible park. Waits on Gate/Counter/Rendezvous are
//     interruptible; Advance and Mailbox.Enlist (the stream-daemon idle
//     loop) are not, so a pending interrupt waits for a blocking
//     synchronization point instead of tearing through timed compute.
//   - Kill() crashes a process: it unwinds silently at its very next
//     scheduling point, whatever it is parked on, and counts as a clean
//     finish. This models the rank (and its GPU) dying.
//
// Both deregister the parked process from its wait primitive (the canceler
// hook), so a later Fire/Put/Arrive on that primitive cannot double-wake.

import (
	"fmt"
	"sort"
)

// canceler is implemented by synchronization primitives that can deregister
// a parked waiter when it is interrupted or killed mid-wait.
type canceler interface{ drop(p *Proc) }

// abortUnwind is the panic payload that carries an abort error up to the
// nearest Protect boundary (or, if none, out of the process as a run error).
type abortUnwind struct{ err error }

// crashedProc is the sentinel unwinding a killed process; the engine treats
// it as a clean finish.
type crashedProc struct{}

// Abort unwinds the calling process with err. The error is returned by the
// nearest enclosing Protect; with no Protect on the stack the process
// terminates and Engine.Run returns the error (wrapped, so errors.Is/As see
// it).
func Abort(err error) {
	if err == nil {
		panic("sim: Abort with nil error")
	}
	panic(abortUnwind{err: err})
}

// Protect runs fn and converts an Abort (or a delivered Interrupt) inside it
// into a returned error, leaving the process alive. Other panics — including
// the engine's own kill/crash sentinels — propagate.
func Protect(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(abortUnwind); ok {
				err = a.err
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}

// RankFailedError is delivered to every process blocked on a crashed rank
// once the failure detector's lease expires. Rank is the failed world rank;
// At is the virtual time of detection (not of the crash itself).
type RankFailedError struct {
	Rank int
	At   Time
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("sim: rank %d declared failed at %v", e.Rank, e.At)
}

// interrupt poisons the process with err: if it is parked interruptibly the
// wait is cancelled and the error raised there, now; otherwise the error is
// raised at the process's next interruptible wait. Only the first interrupt
// is kept until delivered (or cleared). Interrupting a finished or crashed
// process is a no-op. Must be called while holding the ball (from another
// process or an engine callback).
func (p *Proc) interrupt(err error) {
	if err == nil {
		panic("sim: Interrupt with nil error")
	}
	p.eng.settle()
	if p.crashed || !p.eng.alive[p] || p.pendingErr != nil {
		return
	}
	if p.eng.m != nil {
		p.eng.m.interrupts.Inc()
	}
	if p.eng.fr != nil {
		p.eng.fr.record(p.eng.now, flightInterrupt, p.name, err.Error(), -1)
	}
	p.pendingErr = err
	if p.parked && p.interruptible && !p.wakePending {
		if p.waitOn != nil {
			p.waitOn.drop(p)
			p.waitOn = nil
		}
		p.eng.wake(p, p.eng.now, "interrupt")
	}
}

// Kill crashes the process: it unwinds silently at its next scheduling
// point, counting as a clean finish (the simulation can still complete).
// Killing a finished or already-crashed process is a no-op. Must be called
// while holding the ball.
func (p *Proc) Kill() {
	p.eng.settle()
	if p.crashed || !p.eng.alive[p] {
		return
	}
	if p.eng.m != nil {
		p.eng.m.kills.Inc()
	}
	if p.eng.fr != nil {
		p.eng.fr.record(p.eng.now, flightKill, p.name, "", -1)
	}
	p.crashed = true
	if p.parked && !p.wakePending {
		if p.waitOn != nil {
			p.waitOn.drop(p)
			p.waitOn = nil
		}
		p.eng.wake(p, p.eng.now, "crash")
	}
}

// ClearInterrupt discards a pending interrupt. Recovery paths call it after
// consuming the failure (e.g. before rebuilding a communicator) so a poison
// delivered while the process was busy does not abort post-recovery work.
func (p *Proc) ClearInterrupt() {
	p.eng.settle()
	p.pendingErr = nil
}

// CheckInterrupt raises a pending interrupt as an abort unwind. Called by
// the interruptible primitives at wait entry and after resuming, and by
// library code that completes a blocking operation without waiting on
// anything (a script step whose send needs no gate) and must still be a
// delivery point.
func (p *Proc) CheckInterrupt() {
	p.eng.settle()
	if p.pendingErr != nil {
		err := p.pendingErr
		p.pendingErr = nil
		panic(abortUnwind{err: err})
	}
}

// parkOn parks on a primitive that can deregister the waiter (drop) if the
// process is interrupted or killed mid-wait. interruptible selects whether
// Interrupt may cancel this park; Kill always may.
func (p *Proc) parkOn(why string, on canceler, interruptible bool) {
	p.waitOn, p.interruptible = on, interruptible
	p.park(why)
	p.waitOn, p.interruptible = nil, false
}

// enlist is parkOn for a script step that has just queued p on a primitive:
// it records the canceler, whether Interrupt may cancel the wait, and the
// reason diagnostics show; the step then answers StepEnlisted, and the wake
// that runs the next step clears them (runStep).
func (p *Proc) enlist(on canceler, why string, interruptible bool) {
	p.waitOn, p.interruptible = on, interruptible
	p.parkWhy, p.parkDur = why, -1
}

// InterruptAll poisons every live process with err, in spawn order (so
// delivery order is deterministic). The failure detector uses it to revoke
// all in-flight operations when a rank is declared failed.
func (e *Engine) InterruptAll(err error) {
	e.settle()
	procs := make([]*Proc, 0, len(e.alive))
	for p := range e.alive {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
	for _, p := range procs {
		p.interrupt(err)
	}
}
