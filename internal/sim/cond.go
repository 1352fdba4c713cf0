package sim

import (
	"slices"
	"sort"
)

// Synchronization primitives for simulated processes. All primitives operate
// in virtual time and preserve the engine's determinism: waiters are released
// in FIFO order at the virtual instant the releasing condition occurs.

// Gate is a one-shot event: processes wait until it fires. Waiting on an
// already-fired gate returns immediately. The zero value is a valid, unfired
// gate, which lets hot-path owners (MPI message envelopes) embed gates by
// value instead of allocating them; SetLabel attaches a diagnostic label to
// such a gate without formatting cost.
type Gate struct {
	fired bool
	// w0 is the inline first-waiter slot. Almost every gate in the
	// communication layers has exactly one waiter (the poster of the request),
	// so the common case parks and fires without ever allocating the overflow
	// slice. FIFO order is w0 first, then waiters.
	w0      *Proc
	waiters []*Proc
	label   string
	reason  string // "gate <label>", built lazily; or set whole via SetLabel
}

// NewGate returns an unfired gate with a label used in deadlock diagnostics.
func NewGate(label string) *Gate { return &Gate{label: label, reason: "gate " + label} }

// SetLabel sets the full diagnostic string a zero-value (embedded) gate
// reports in deadlock traces and wake reasons. Callers pass a constant
// ("gate send"), trading per-instance detail for a formatting-free hot path.
func (g *Gate) SetLabel(reason string) { g.reason = reason }

func (g *Gate) why() string {
	if g.reason == "" {
		if g.label == "" {
			return "gate"
		}
		g.reason = "gate " + g.label
	}
	return g.reason
}

// Fired reports whether the gate has fired.
func (g *Gate) Fired() bool { return g.fired }

// Fire releases all current and future waiters. Firing an already-fired gate
// is a no-op. Must be called while holding the ball (from a process or an
// engine callback).
func (g *Gate) Fire(e *Engine) {
	e.settle()
	if g.fired {
		return
	}
	g.fired = true
	if w := g.w0; w != nil {
		g.w0 = nil
		e.wake(w, e.now, g.why())
	}
	for _, w := range g.waiters {
		e.wake(w, e.now, g.why())
	}
	g.waiters = nil
}

// Wait blocks p until the gate fires. The wait is interruptible: a pending
// or arriving Interrupt aborts it (see interrupt.go).
func (g *Gate) Wait(p *Proc) {
	if g.Enlist(p) {
		return
	}
	p.parkOn(g.why(), g, true)
	p.CheckInterrupt()
}

// Enlist is Wait for a script step (Proc.AdvanceFn). It reports true when the
// gate has already fired and the step may go on; otherwise p is registered as
// a waiter and the step must answer StepEnlisted — the gate's wake then runs
// the script's next step where Wait would have resumed the coroutine. Like
// Wait it raises a pending interrupt first, and an Interrupt or Kill that
// arrives while p is enlisted deregisters it.
func (g *Gate) Enlist(p *Proc) (fired bool) {
	p.CheckInterrupt()
	if g.fired {
		return true
	}
	g.add(p)
	p.enlist(g, g.why(), true)
	return false
}

// add appends p to the FIFO of waiters.
func (g *Gate) add(p *Proc) {
	if g.w0 == nil && len(g.waiters) == 0 {
		g.w0 = p
	} else {
		g.waiters = append(g.waiters, p)
	}
}

func (g *Gate) drop(p *Proc) {
	if g.w0 == p {
		// Promote the next overflow waiter so FIFO release order survives.
		g.w0 = nil
		if len(g.waiters) > 0 {
			g.w0 = g.waiters[0]
			g.waiters = slices.Delete(g.waiters, 0, 1)
		}
		return
	}
	g.waiters = removeWaiter(g.waiters, p)
}

// removeWaiter deletes p from a waiter slice, preserving FIFO order of the
// remaining waiters and clearing the vacated tail slot, so a departed
// process is not kept reachable from the backing array. Used by the
// interrupt/kill cancelers.
func removeWaiter(ws []*Proc, p *Proc) []*Proc {
	if i := slices.Index(ws, p); i >= 0 {
		return slices.Delete(ws, i, i+1)
	}
	return ws
}

// Counter is a monotonic (or at least externally ordered) unsigned value
// that processes can wait on. It models signal words in one-sided
// communication: an atomic location updated by remote writers and polled by
// a waiter.
type Counter struct {
	value   uint64
	reason  string
	waiters []counterWaiter
}

// counterWaiter is one parked waiter and its condition: pred, or value >= min
// when pred is nil (WaitGE, which so needs no closure).
type counterWaiter struct {
	p    *Proc
	pred func(uint64) bool
	min  uint64
}

func (w *counterWaiter) holds(v uint64) bool {
	if w.pred == nil {
		return v >= w.min
	}
	return w.pred(v)
}

// NewCounter returns a counter with initial value v.
func NewCounter(label string, v uint64) *Counter {
	return &Counter{value: v, reason: "counter " + label}
}

// Value reports the current value.
func (c *Counter) Value() uint64 { return c.value }

// Set assigns the value and releases any waiter whose predicate now holds.
func (c *Counter) Set(e *Engine, v uint64) {
	e.settle()
	c.value = v
	c.notify(e)
}

// Add increments the value and releases satisfied waiters.
func (c *Counter) Add(e *Engine, delta uint64) {
	e.settle()
	c.value += delta
	c.notify(e)
}

func (c *Counter) notify(e *Engine) {
	kept := c.waiters[:0]
	for i := range c.waiters {
		if w := &c.waiters[i]; w.holds(c.value) {
			e.wake(w.p, e.now, c.reason)
		} else {
			kept = append(kept, *w)
		}
	}
	clear(c.waiters[len(kept):]) // released waiters and their predicates
	c.waiters = kept
}

// WaitUntil blocks p until pred(value) is true. If it is already true the
// call returns immediately. The wait is interruptible.
func (c *Counter) WaitUntil(p *Proc, pred func(uint64) bool) {
	c.wait(p, counterWaiter{p: p, pred: pred})
}

// WaitGE blocks p until value >= v.
func (c *Counter) WaitGE(p *Proc, v uint64) {
	c.wait(p, counterWaiter{p: p, min: v})
}

func (c *Counter) wait(p *Proc, w counterWaiter) {
	if c.enlist(p, w) {
		return
	}
	p.parkOn(c.reason, c, true)
	p.CheckInterrupt()
}

// Enlist is WaitUntil for a script step (Proc.AdvanceFn), as Gate.Enlist is
// Wait: it reports true when pred already holds; otherwise p is registered
// and the step must answer StepEnlisted — the Set or Add that makes pred hold
// runs the next step. A step that must not allocate passes a predicate bound
// once (a method value of a recycled record).
func (c *Counter) Enlist(p *Proc, pred func(uint64) bool) (holds bool) {
	return c.enlist(p, counterWaiter{p: p, pred: pred})
}

func (c *Counter) enlist(p *Proc, w counterWaiter) (holds bool) {
	p.CheckInterrupt()
	if w.holds(c.value) {
		return true
	}
	c.waiters = append(c.waiters, w)
	p.enlist(c, c.reason, true)
	return false
}

func (c *Counter) drop(p *Proc) {
	if i := slices.IndexFunc(c.waiters, func(w counterWaiter) bool { return w.p == p }); i >= 0 {
		c.waiters = slices.Delete(c.waiters, i, i+1)
	}
}

// Mailbox is an unbounded FIFO queue of items passed between processes.
// Put never blocks; a receiver takes items with Enlist from a script step.
// Items are delivered in insertion order.
type Mailbox[T any] struct {
	reason  string
	items   []T // queued items are items[head:]
	head    int
	waiters []*Proc
}

// NewMailbox returns an empty mailbox.
func NewMailbox[T any](label string) *Mailbox[T] {
	return &Mailbox[T]{reason: "mailbox " + label}
}

// Put enqueues an item, waking the longest-waiting receiver if any.
func (m *Mailbox[T]) Put(e *Engine, item T) {
	e.settle()
	m.items = append(m.items, item)
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		// The usual single receiver leaves the slice empty at its base, so
		// the next park appends without allocating.
		m.waiters = slices.Delete(m.waiters, 0, 1)
		e.wake(w, e.now, m.reason)
	}
}

// Enlist is a script step's receive (Proc.AdvanceFn): it dequeues the next
// item if there is one; otherwise it registers p as a receiver and the step
// must answer StepEnlisted — the next Put's wake runs the script's next step.
// The wait is NOT interruptible — daemons idling on a mailbox (GPU stream
// executors) must keep serving after a failure is declared — but a Kill
// still unwinds it.
func (m *Mailbox[T]) Enlist(p *Proc) (item T, ok bool) {
	if m.head == len(m.items) {
		m.waiters = append(m.waiters, p)
		p.enlist(m, m.reason, false)
		return item, false
	}
	var zero T
	item = m.items[m.head]
	m.items[m.head] = zero
	// Advance a head index instead of shifting the queue on every dequeue:
	// a drained queue restarts its backing array, and one that never drains
	// compacts once the consumed prefix is half of it (amortized O(1)).
	switch m.head++; {
	case m.head == len(m.items):
		m.items, m.head = m.items[:0], 0
	case m.head >= 32 && 2*m.head >= len(m.items):
		n := copy(m.items, m.items[m.head:])
		clear(m.items[n:])
		m.items, m.head = m.items[:n], 0
	}
	return item, true
}

func (m *Mailbox[T]) drop(p *Proc) { m.waiters = removeWaiter(m.waiters, p) }

// Rendezvous is a reusable n-party barrier: the first n-1 arrivals block,
// the n-th arrival releases everyone and resets the barrier for the next
// round. It models the implicit synchronization of collective kernels that
// require all participants to be running.
type Rendezvous struct {
	reason  string
	parties int
	arrived []*Proc
}

// NewRendezvous returns a barrier for the given number of parties.
func NewRendezvous(label string, parties int) *Rendezvous {
	if parties < 1 {
		panic("sim: rendezvous parties < 1")
	}
	return &Rendezvous{reason: "rendezvous " + label, parties: parties}
}

// Arrive blocks p until all parties have arrived in this round. The wait is
// interruptible; an interrupted or killed party is deregistered, so the
// barrier then needs the remaining parties plus one replacement arrival.
func (r *Rendezvous) Arrive(p *Proc) {
	if r.Enlist(p) {
		return
	}
	p.parkOn(r.reason, r, true)
	p.CheckInterrupt()
}

// Enlist is Arrive for a script step (Proc.AdvanceFn), as Gate.Enlist is
// Wait: the last party releases the others and reports true; any other is
// registered and the step must answer StepEnlisted — the last party's
// arrival runs its next step.
func (r *Rendezvous) Enlist(p *Proc) (released bool) {
	p.CheckInterrupt()
	if len(r.arrived)+1 == r.parties {
		for _, w := range r.arrived {
			p.eng.wake(w, p.eng.now, r.reason)
		}
		clear(r.arrived)
		r.arrived = r.arrived[:0]
		return true
	}
	r.arrived = append(r.arrived, p)
	p.enlist(r, r.reason, true)
	return false
}

func (r *Rendezvous) drop(p *Proc) { r.arrived = removeWaiter(r.arrived, p) }

// Timeline models a serially-reusable resource (a link, a NIC, a copy
// engine) whose occupancy is tracked as a single busy-until horizon.
// Reservations are granted back-to-back in request order, which yields a
// deterministic FCFS contention model.
//
// A timeline may additionally carry stall windows (AddStall): half-open
// intervals of virtual time during which the resource admits no new
// reservations — modeling a flapping NIC port or a link in error recovery.
// A reservation whose start would fall inside a stall window is pushed to
// the window's end; a reservation granted before the window runs through it
// unaffected (only admission is gated).
type Timeline struct {
	label     string
	busyUntil Time
	busySum   Duration // total reserved time, for utilization reporting
	stalls    []stallWindow
}

// stallWindow is one half-open [start, end) admission blackout.
type stallWindow struct {
	start, end Time
}

// NewTimeline returns an idle timeline.
func NewTimeline(label string) *Timeline { return &Timeline{label: label} }

// Label reports the timeline's label.
func (t *Timeline) Label() string { return t.label }

// BusyUntil reports the time at which the resource becomes free.
func (t *Timeline) BusyUntil() Time { return t.busyUntil }

// BusySum reports the cumulative reserved duration (for utilization stats).
func (t *Timeline) BusySum() Duration { return t.busySum }

// AddStall marks [start, end) as an admission blackout: no new reservation
// may begin inside it. Windows may be added in any order and may overlap.
// Empty or inverted windows are ignored.
func (t *Timeline) AddStall(start, end Time) {
	if end <= start {
		return
	}
	t.stalls = append(t.stalls, stallWindow{start, end})
	sort.Slice(t.stalls, func(i, j int) bool { return t.stalls[i].start < t.stalls[j].start })
}

// StalledAt reports whether at falls inside a stall window and, if so, when
// admission reopens (the end of the latest covering chain of windows).
func (t *Timeline) StalledAt(at Time) (until Time, stalled bool) {
	adm := t.admitAfter(at)
	return adm, adm != at
}

// admitAfter returns the earliest time >= at not inside any stall window.
// One pass over the start-sorted windows suffices: after a shift to a
// window's end, only later-starting windows can still cover the new time.
func (t *Timeline) admitAfter(at Time) Time {
	for _, w := range t.stalls {
		if at >= w.start && at < w.end {
			at = w.end
		}
	}
	return at
}

// ReserveMulti books several timelines for the same transfer (e.g. source
// egress port and destination ingress port): the transfer starts when all
// are free and admitting, and occupies each for dur. Returns the common
// [start, end).
func ReserveMulti(at Time, dur Duration, tls ...*Timeline) (start, end Time) {
	start = at
	for _, tl := range tls {
		if tl.busyUntil > start {
			start = tl.busyUntil
		}
	}
	// Push the common start past every timeline's stall windows until it is
	// admissible everywhere (fixpoint; each shift strictly increases start).
	for {
		moved := start
		for _, tl := range tls {
			moved = tl.admitAfter(moved)
		}
		if moved == start {
			break
		}
		start = moved
	}
	end = start.Add(dur)
	for _, tl := range tls {
		tl.busyUntil = end
		tl.busySum += dur
	}
	return start, end
}
