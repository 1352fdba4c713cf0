// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine. It is the substrate on which the simulated GPU runtime,
// cluster fabric, and communication backends execute.
//
// Every simulated activity (a rank's host program, a GPU stream, a NIC
// progress engine) is a Proc: a runtime coroutine (iter.Pull) that runs
// cooperatively under the engine's scheduler. Exactly one Proc executes at
// any instant, and runnable Procs are ordered by (virtual time, sequence
// number), so a simulation is bit-for-bit deterministic across runs and
// platforms. Virtual time is kept in integer nanoseconds.
//
// Scheduling is a trampoline: whoever holds the run token (the "ball") pops
// the next event itself and either continues running (its own wake — no
// switch at all), runs an engine callback or a step of a parked process's
// script (AdvanceFn) inline, or names the next process in Engine.next and
// yields to Run, which switches straight into it. A
// hand-off is two coroutine switches on one thread; it never passes through
// a channel, the run queue or another OS thread. See DESIGN.md §11 for the
// protocol and its invariants.
package sim

import (
	"fmt"
	"iter"
	"math"
	"sort"
	"strings"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration but is kept distinct so wall-clock and virtual quantities
// cannot be mixed accidentally.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Micros is a convenience constructor for fractional microseconds.
func Micros(us float64) Duration { return Duration(us * float64(Microsecond)) }

// Nanos is a convenience constructor for fractional nanoseconds, rounding to
// the integer grid (half away from zero, correct for negative inputs too).
func Nanos(ns float64) Duration { return Duration(math.Round(ns)) }

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros reports the duration as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

func (d Duration) String() string {
	if d < 0 {
		if d == math.MinInt64 { // -d would overflow; seconds are exact enough here
			return fmt.Sprintf("%.6gs", d.Seconds())
		}
		return "-" + (-d).String()
	}
	switch {
	case d >= Second:
		return fmt.Sprintf("%.6gs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.6gus", d.Micros())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Add offsets a time by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub reports the duration between two times.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return Duration(t).String() }

// freePoolCap bounds the recycled-event free list. A burst of scheduling
// (a wide collective fan-out, a chaos storm) may transiently allocate many
// events, but once dispatched only this many are kept for reuse; the rest
// become garbage instead of pinning memory for the life of the engine.
const freePoolCap = 1024

// Engine owns the virtual clock and the event queue.
type Engine struct {
	now  Time
	seq  uint64
	q    eventQueue
	free []*event // recycled events, capped at freePoolCap (steady-state zero-alloc)

	live  int // non-daemon procs spawned and not yet finished
	alive map[*Proc]bool

	// Hand-off. next is the process the trampoline in Run switches
	// to once the current ball holder has yielded or finished; nil ends the
	// run with stopErr as its outcome. Only the ball holder writes either.
	next    *Proc
	stopErr error
	closed  bool

	running  bool
	trace    func(string)
	deadline Time            // virtual-time watchdog; 0 disables
	m        *engineMetrics  // nil when metrics are disabled (see metrics.go)
	fr       *FlightRecorder // nil when flight recording is disabled (see flight.go)
	shifted  Duration        // the sum of every Shift (SkipFreeNow)

	// debtor is the running process while it owes deferred host charges
	// (Proc.Charge), nil otherwise. Every interaction with shared state
	// checks it and settles the charges first (settle).
	debtor *Proc

	// AppendState's sort scratch, kept so a digest does not allocate.
	stateEvs   []*event
	stateProcs []*Proc
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{alive: map[*Proc]bool{}}
}

// Close terminates all remaining processes (including daemons). Call it once
// the simulation is finished, never from inside it; the engine is unusable
// afterward.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	// Each remaining coroutine is parked in yield or was never started.
	// stop makes a parked yield report false, so the process unwinds via the
	// killed sentinel on this goroutine, one at a time, and returns only
	// once it is gone; an unstarted one exits without running its body. The
	// killed path mutates no engine state, so the order is immaterial.
	for p := range e.alive {
		p.stop()
	}
	clear(e.alive)
}

// Now reports the current virtual time. Reading the clock settles the
// running process's deferred charges (Proc.Charge).
func (e *Engine) Now() Time {
	e.settle()
	return e.now
}

// SetWatchdog arms the virtual-time watchdog: when the clock would advance
// past deadline, Run stops and returns a *TimeoutError carrying the same
// parked-process diagnostics as a deadlock. A zero deadline disables the
// watchdog. Intended for fault-injection runs where a stalled port or a
// retry loop can make a simulation creep forward forever without ever
// deadlocking.
func (e *Engine) SetWatchdog(deadline Time) { e.deadline = deadline }

// SetTrace installs a callback receiving one line per scheduler action.
// Intended for debugging; nil disables tracing.
func (e *Engine) SetTrace(fn func(string)) { e.trace = fn }

func (e *Engine) tracef(format string, args ...any) {
	if e.trace != nil {
		e.trace(fmt.Sprintf("[%s] ", e.now) + fmt.Sprintf(format, args...))
	}
}

// Proc is a simulated process: a coroutine scheduled cooperatively by the
// engine. All blocking methods (Advance, waits on conditions) must be called
// from the process's own body.
type Proc struct {
	eng  *Engine
	name string

	// The coroutine (iter.Pull). Run's trampoline calls next to switch in,
	// the body calls yield to switch back out, Close calls stop.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	id          uint64
	daemon      bool
	wakePending bool

	// pendingEv is the process's outstanding wake (or spawn) event, if any.
	// At most one exists at a time (wake enforces this). If the process
	// finishes while one is pending, it is canceled in place rather than
	// dug out of the heap.
	pendingEv *event

	// Park bookkeeping, kept as plain fields (not an engine-side map) so
	// the park/wake hot path performs no map operations and no string
	// formatting. parkWhy must be a static (pre-built) string; parkDur,
	// when >= 0, is appended lazily by waitingList for diagnostics.
	parked  bool
	parkWhy string
	parkDur Duration

	// Hard-fault state (see interrupt.go). waitOn lets Interrupt/Kill
	// deregister the process from the primitive it is parked on;
	// interruptible gates whether Interrupt may cancel the current park;
	// pendingErr is an undelivered interrupt; crashed marks a killed
	// process that unwinds at its next scheduling point.
	waitOn        canceler
	interruptible bool
	pendingErr    error
	crashed       bool

	// script, while set, is run in engine context by every wake that comes
	// due for the process, in that wake's own event slot (AdvanceFn);
	// stepPanic carries a panic raised inside a step to the owner's stack.
	script    func() Duration
	stepPanic any

	// charges are the process's deferred host charges (Charge): unspent
	// while it is the engine's debtor, then the chain its settling park
	// still waits out, chargeAt (> 0 during the chain) indexing the next.
	charges  []Duration
	chargeAt int
	chargeFn func() Duration // chargeStep, bound once
}

// Name reports the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine reports the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current virtual time, settling the process's deferred
// charges (Charge) first.
func (p *Proc) Now() Time { return p.eng.Now() }

// Spawn creates a process that will start running at the current virtual
// time, after currently runnable processes with earlier sequence numbers.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.spawnAt(e.Now(), name, fn, false)
}

// SpawnDaemon creates a background process (e.g. a GPU stream executor or a
// NIC progress engine). Daemons do not count toward completion: a simulation
// finishes cleanly even while daemons are parked, and Close terminates them.
func (e *Engine) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawnAt(e.Now(), name, fn, true)
}

// killed is the sentinel panic value that unwinds a process parked when
// Close stops it.
type killed struct{}

func (e *Engine) spawnAt(t Time, name string, fn func(p *Proc), daemon bool) *Proc {
	if e.closed {
		panic("sim: Spawn on closed engine")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: spawn at %v is in the past (now %v)", t, e.now))
	}
	p := &Proc{eng: e, name: name, id: e.seq, daemon: daemon}
	if !daemon {
		e.live++
	}
	if e.m != nil {
		e.m.spawns.Inc()
	}
	if e.fr != nil {
		e.fr.record(e.now, flightSpawn, name, "", -1)
	}
	e.alive[p] = true
	// The body starts at the first next(), i.e. when the spawn event is
	// dispatched; a process stopped before that never runs it.
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			// Unless Close unwound it, the process still holds the ball here;
			// procExit retires it and continues dispatching on this stack.
			switch v := recover().(type) {
			case killed: // unwound by Close: no state changes
			case nil, crashedProc:
				// A killed (crashed) process counts as a clean finish:
				// the simulation keeps running on the survivors.
				e.procExit(p, nil, nil)
			case abortUnwind:
				e.procExit(p, nil, v.err)
			default:
				e.procExit(p, v, nil)
			}
		}()
		if p.crashed {
			panic(crashedProc{})
		}
		fn(p)
		e.settle() // a process finishes once it has paid its charges
	})
	e.schedule(t, p, nil, "spawn")
	return p
}

// schedule enqueues an event. Exactly one of proc/fn must be non-nil.
// Events come from the engine's free list when possible, so steady-state
// scheduling does not allocate; same-instant events take the FIFO ring
// instead of the heap, and a future event at the instant of the one pushed
// before it joins that one's run.
//
// Every way in has settled the running process's charges (Proc.Charge)
// already — After and Spawn read the clock through Now, and wake's callers
// settle at their entry — so the hot path carries no check of its own.
func (e *Engine) schedule(t Time, p *Proc, fn func(), why string) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v (%s)", t, e.now, why))
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.proc, ev.fn, ev.canceled = t, e.seq, p, fn, false
	} else {
		ev = &event{at: t, seq: e.seq, proc: p, fn: fn}
	}
	if p != nil {
		p.pendingEv = ev
	}
	if t == e.now {
		e.q.pushNow(ev)
	} else if !e.q.chain(ev) {
		e.q.pushHeap(ev)
	}
}

// release returns a popped event to the free list, unless the pool is full.
func (e *Engine) release(ev *event) {
	if len(e.free) < freePoolCap {
		ev.proc, ev.fn = nil, nil
		e.free = append(e.free, ev)
	}
}

// After runs fn in engine context after delay d. fn must not block. It is
// safe to call from engine callbacks and from process goroutines while they
// hold the ball.
func (e *Engine) After(d Duration, fn func()) {
	e.schedule(e.Now().Add(d), nil, fn, "after")
}

// wake schedules p to resume at time t. It panics if a wakeup is already
// pending: a parked process must be woken exactly once.
func (e *Engine) wake(p *Proc, t Time, why string) {
	if p.wakePending {
		panic(fmt.Sprintf("sim: double wake of %s (%s)", p.name, why))
	}
	p.wakePending = true
	e.schedule(t, p, nil, why)
}

// dispatch runs the event loop on the calling stack until the next event
// belongs to another process (left in e.next for the trampoline) or the
// simulation stops. self identifies the calling process (nil for Run
// itself). It returns true when the next runnable event resumes self — the
// fast path: the caller just keeps executing, with no switch at all. Engine
// callbacks (pure-delay timers, deferred deliveries) run inline on this
// stack, so they never switch either.
func (e *Engine) dispatch(self *Proc) (resumedSelf bool) {
	for {
		ev := e.q.pop()
		if ev == nil {
			if e.live > 0 {
				e.stop(&DeadlockError{at: e.now, waiting: e.waitingList()})
			} else {
				e.stop(nil)
			}
			return false
		}
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		if e.deadline > 0 && ev.at > e.deadline {
			// The event is dropped, not released: a canceled proc event may
			// still be referenced as a pendingEv, and the engine is done.
			e.stop(&TimeoutError{Deadline: e.deadline, At: ev.at, Waiting: e.waitingList()})
			return false
		}
		e.now = ev.at
		if e.m != nil {
			e.m.events.Inc()
		}
		if ev.canceled {
			// Lazily-removed event (its process finished first). It still
			// advances the clock and counts as dispatched, exactly like the
			// old engine's stale-wakeup path.
			e.release(ev)
			continue
		}
		if fn := ev.fn; fn != nil {
			e.release(ev)
			if e.m != nil {
				e.m.callbacks.Inc()
			}
			if e.fr != nil {
				e.fr.record(e.now, flightCallback, "", "", -1)
			}
			if err := e.runCallback(fn); err != nil {
				e.stop(err)
				return false
			}
			continue
		}
		p := ev.proc
		p.pendingEv = nil
		e.release(ev)
		if e.trace != nil {
			e.tracef("resume %s", p.name)
		}
		if e.fr != nil {
			e.fr.record(e.now, flightEvent, p.name, "", -1)
		}
		if p.script != nil && e.runStep(p) {
			// The step took the slot and left the process waiting again. A
			// step of a settling chain (Proc.Charge) stands for the Advance
			// park it replaces.
			if e.m != nil {
				if p.chargeAt > 0 {
					e.m.countPark("advance")
				} else {
					e.m.steps.Inc()
				}
			}
			if e.fr != nil {
				e.fr.record(e.now, flightPark, p.name, p.parkWhy, p.parkDur)
			}
			continue
		}
		if p == self {
			return true
		}
		e.next = p
		return false
	}
}

// stop ends the run: it records the outcome and leaves the trampoline
// nothing to switch to, so Run returns once the caller has yielded.
func (e *Engine) stop(err error) {
	if e.fr != nil && err != nil {
		e.fr.record(e.now, flightStop, "", err.Error(), -1)
	}
	e.stopErr = err
	e.next = nil
}

// procExit retires a finished process while it still holds the ball, then
// either continues dispatching on this stack or ends the run.
func (e *Engine) procExit(p *Proc, panicked any, aborted error) {
	if !p.daemon {
		e.live--
	}
	delete(e.alive, p)
	if e.debtor == p { // it panicked or aborted before paying its charges
		e.debtor = nil
	}
	if p.pendingEv != nil {
		// Lazy cancellation: the wake outlives the process; flag it and let
		// dispatch discard it when it surfaces.
		p.pendingEv.canceled = true
		p.pendingEv = nil
	}
	if e.trace != nil {
		e.tracef("finish %s", p.name)
	}
	if panicked != nil {
		e.stop(&PanicError{proc: p.name, value: panicked})
		return
	}
	if aborted != nil {
		// %w keeps errors.Is/As working on the typed failure
		// (e.g. *RankFailedError) for callers of Run.
		e.stop(fmt.Errorf("sim: process %q failed: %w", p.name, aborted))
		return
	}
	e.dispatch(p)
}

// park is called from a process body: it hands off the ball and blocks
// until resumed. why is reported in deadlock diagnostics; it must be a
// static string (parkFor carries a duration detail without formatting).
func (p *Proc) park(why string) { p.parkFor(why, -1) }

// parkFor parks with a duration detail that deadlock/timeout diagnostics
// format lazily, keeping fmt out of the park hot path. The process itself
// dispatches the next events: if the first non-callback event is its own
// wake it simply returns (no switch); otherwise it yields to the trampoline,
// which switches to the process dispatch named.
func (p *Proc) parkFor(why string, d Duration) {
	e := p.eng
	// Every way in has settled the process's charges (Charge) already: the
	// waits through their Enlist, Advance and AdvanceFn at their entry.
	p.parked = true
	p.parkWhy = why
	p.parkDur = d
	if e.m != nil {
		e.m.countPark(why)
	}
	if e.fr != nil {
		e.fr.record(e.now, flightPark, p.name, why, d)
	}
	if !e.dispatch(p) && !p.yield(struct{}{}) {
		panic(killed{})
	}
	p.wakePending = false
	p.parked = false
	if p.crashed {
		panic(crashedProc{})
	}
}

// Advance moves the process forward by d in virtual time. Negative durations
// are clamped to zero. Owing charges (Charge), the process waits out d as
// the last link of their chain.
func (p *Proc) Advance(d Duration) {
	if d <= 0 {
		return
	}
	e := p.eng
	if e.debtor != nil {
		p.Charge(d)
		p.settle()
		return
	}
	e.wake(p, e.now.Add(d), "advance")
	p.parkFor("advance", d)
}

// Charge is a deferred Advance(d): a pure host-CPU charge that the process
// pays at its next interaction with shared state — reading the clock,
// scheduling, parking, waiting or enlisting, firing a gate, setting a counter,
// putting to a mailbox. There the run of charges since the last one is
// settled as a single park (settle), and the coroutine switches once instead
// of once per charge. Each charge keeps its own event, scheduled in the slot
// Advance would have scheduled it in, so virtual times, event order and
// counters are those of Advance. Until its next sim call the process must
// touch only its own state. Charge must be called from the process's own
// body, never from a script step. Negative durations are clamped to zero.
func (p *Proc) Charge(d Duration) {
	if d <= 0 {
		return
	}
	if p.script != nil {
		panic(fmt.Sprintf("sim: %s: Charge inside a script step", p.name))
	}
	if p.charges == nil {
		p.charges = make([]Duration, 0, 4) // a run is short
	}
	p.charges = append(p.charges, d)
	p.eng.debtor = p
}

// settle pays the running process's deferred charges, if any, before it
// touches shared state.
func (e *Engine) settle() {
	if e.debtor != nil {
		e.debtor.settle()
	}
}

// settle waits out p's charges as one park (AdvanceFn): the first is its
// timed wake, and a script step re-arms each later one in the slot of the
// wake before it — where Advance would have scheduled it. A lone charge is
// just that Advance.
func (p *Proc) settle() {
	p.eng.debtor = nil
	if len(p.charges) == 1 {
		d := p.charges[0]
		p.charges = p.charges[:0]
		p.Advance(d)
		return
	}
	if p.chargeFn == nil {
		p.chargeFn = p.chargeStep
	}
	p.chargeAt = 1
	p.AdvanceFn(p.charges[0], p.chargeFn)
	p.charges, p.chargeAt = p.charges[:0], 0
}

// chargeStep is the settling chain's script step: the next charge, or
// StepResume once the last has been waited out.
func (p *Proc) chargeStep() Duration {
	if p.chargeAt == len(p.charges) {
		return StepResume
	}
	d := p.charges[p.chargeAt]
	p.chargeAt++
	return d
}

// Answers of a script step (AdvanceFn) other than "advance d more" (d > 0).
const (
	// StepResume ends the script: the coroutine resumes right here, in the
	// slot of the wake that ran the step, with no event of its own.
	StepResume Duration = 0
	// StepEnlisted says the step registered the process on a primitive
	// (Gate.Enlist); that primitive's wake runs the next step.
	StepEnlisted Duration = -1
)

// AdvanceFn is Advance(d) followed by a run-to-completion script: the
// coroutine parks once, and every wake that then comes due for the process —
// the timed one, or the wake of a gate a step enlisted it on — runs step in
// engine context, in that wake's own event slot, instead of switching to the
// coroutine. step must not block. It answers d' > 0 (advance d' more, then
// call me again), StepEnlisted, or StepResume, on which AdvanceFn returns in
// the same slot. A step that would advance by zero just goes on, as
// Advance(0) does; d <= 0 likewise runs the first step on the spot.
//
// The script stands in for its owner at every scheduling point. One event is
// spent where the coroutine form spends one, so virtual times, event order
// and counts are those of the same logic written with Advance and Wait. A
// killed owner unwinds at its next slot without running the step; a panic
// inside a step — a sim.Abort (fabric partition), an interrupt raised by
// Enlist or CheckInterrupt, or a bug — is raised again on the owner's stack,
// from this call, so Protect catches what it would have caught and a
// PanicError names the owner. Scripts do not nest: a step must not call
// AdvanceFn.
func (p *Proc) AdvanceFn(d Duration, step func() Duration) {
	e := p.eng
	e.settle()
	if p.script != nil {
		panic(fmt.Sprintf("sim: %s: AdvanceFn inside a script step", p.name))
	}
	p.script = step
	if d > 0 {
		e.wake(p, e.now.Add(d), "advance")
		p.parkFor("advance", d)
	} else if e.runStep(p) {
		p.parkFor(p.parkWhy, p.parkDur) // the first step re-armed or enlisted the process
	}
	if v := p.stepPanic; v != nil {
		p.stepPanic = nil
		panic(v)
	}
}

// runStep runs one step of p's script in the current event slot. It reports
// true when the step left the process waiting (on a new timed wake or on a
// primitive) and false when the coroutine is to resume here: the script
// finished, the process was killed, or the step panicked.
func (e *Engine) runStep(p *Proc) (waiting bool) {
	// The wake that runs the step took p off any primitive it had enlisted on.
	p.wakePending, p.waitOn = false, nil
	if p.crashed {
		p.script = nil
		return false
	}
	defer func() {
		if r := recover(); r != nil {
			if p.waitOn != nil { // it had just enlisted
				p.waitOn.drop(p)
				p.waitOn, p.interruptible = nil, false
			}
			p.script, p.stepPanic, waiting = nil, r, false
		}
	}()
	if p.interruptible {
		// The second half of the Wait the previous step enlisted for.
		p.interruptible = false
		p.CheckInterrupt()
	}
	d := p.script()
	switch {
	case d > 0:
		e.wake(p, e.now.Add(d), "advance")
		p.parkWhy, p.parkDur = "advance", d
	case d == StepResume:
		p.script = nil
		return false
	}
	return true
}

// DeadlockError is returned by Run when live processes remain but no events
// are pending.
type DeadlockError struct {
	at      Time
	waiting []string // "name: reason" for each parked process
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v; %d waiting: %s",
		d.at, len(d.waiting), strings.Join(d.waiting, "; "))
}

// TimeoutError is returned by Run when the virtual clock would advance past
// the watchdog deadline (SetWatchdog). Waiting lists the parked non-daemon
// processes exactly as DeadlockError does, so a hung-but-not-deadlocked run
// (e.g. an endless retry loop against a stalled port) is as diagnosable as a
// true deadlock.
type TimeoutError struct {
	Deadline Time
	At       Time // time of the event that would have crossed the deadline
	Waiting  []string
}

func (t *TimeoutError) Error() string {
	return fmt.Sprintf("sim: watchdog timeout: next event at %v exceeds deadline %v; %d waiting: %s",
		t.At, t.Deadline, len(t.Waiting), strings.Join(t.Waiting, "; "))
}

// waitingList snapshots the parked non-daemon processes, sorted, for
// deadlock and timeout diagnostics. Formatting happens here, on the cold
// error path, so parking itself never builds strings.
func (e *Engine) waitingList() []string {
	var waiting []string
	for p := range e.alive {
		if p.daemon || !p.parked {
			continue
		}
		why := p.parkWhy
		if p.parkDur >= 0 {
			why = why + " " + p.parkDur.String()
		}
		waiting = append(waiting, p.name+": "+why)
	}
	sort.Strings(waiting)
	return waiting
}

// PanicError is returned by Run when a simulated process panicked.
type PanicError struct {
	proc  string
	value any
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", p.proc, p.value)
}

// runCallback executes an engine-context event callback, converting a panic
// into a *PanicError so a failing simulated component (e.g. a message
// delivery that detects truncation) surfaces as a simulation error instead
// of crashing the caller.
func (e *Engine) runCallback(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{proc: "engine-callback", value: r}
		}
	}()
	fn()
	return nil
}

// Run executes the simulation until no events remain. It returns nil on
// clean completion (all processes finished), a *DeadlockError if processes
// remain blocked forever, or a *PanicError if a process (or an engine
// callback) panicked.
//
// Run's goroutine is the trampoline every hand-off bounces through: a
// process that cannot continue yields here, and Run switches to the one
// dispatch chose. runtime.Goexit in a process body therefore ends Run's
// caller.
func (e *Engine) Run() error {
	if e.closed {
		panic("sim: Run on closed engine")
	}
	if e.running {
		panic("sim: Engine.Run reentered")
	}
	e.running = true
	defer func() { e.running = false }()
	e.stopErr = nil
	e.dispatch(nil)
	for e.next != nil {
		p := e.next
		e.next = nil
		p.next()
	}
	return e.stopErr
}
