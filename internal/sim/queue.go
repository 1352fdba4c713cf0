package sim

// The engine's event queue: a hand-rolled 4-ary min-heap of runs of
// equal-time events, ordered by their heads' (at, seq), plus a FIFO ring of
// events scheduled at exactly the current instant (the "now queue").
//
// Why not container/heap: the interface-based API costs a dynamic dispatch
// per comparison and boxes every push/pop through `any`. The event loop is
// the innermost loop of every simulation, so the queue is monomorphic and
// its push inlines into schedule. A 4-ary layout halves the tree depth of a
// binary heap.
//
// Runs. Most future events tie: in a Jacobi/CG cell 79 % of future pushes
// land at the same instant as the push just before them, and 91 % of pops
// share the previous pop's instant (97 % in a 64-rank small allreduce). A
// heap of single events pays a full sift-down for each tied pop, breaking
// ties on seq with unpredictable branches. Since seq grows with scheduling
// order, a future event pushed at the same instant as the most recently
// pushed one (the run's tail, still pending) is linked behind it
// instead: the run is already in (at, seq) order, so the heap holds only
// run heads and pop is an exact k-way merge of sorted runs. A popped head's
// successor takes the root and sifts down — normally one level, since its
// at is at most its children's. Pop order is the same as a heap of every
// event, event for event.
//
// Keeping (at, seq) inline in the heap slots instead of behind the event
// pointer measured no gain (a 64-rank small allreduce 5.8 → 6.1 ms, a
// 256-rank ring unchanged), so the slots stay pointers.
//
// The queue keeps the tail's instant beside it (tailAt) and clears neither
// when the tail pops. tailAt starts at zero, and once the tail pops it is at
// most the clock, while a future push is later than the clock: nothing
// chains behind a missing or popped tail. The copy matters: a popped tail
// recycled into the very event being pushed carries the new instant, and
// comparing with its own at would link it to itself.
//
// The now queue exploits the engine's dominant scheduling pattern: most
// wakes (gate fires, mailbox puts, yields, interrupt delivery) are scheduled
// at the current virtual time. Those events need no heap ordering at all —
// two invariants make a plain FIFO exact:
//
//  1. An event lands in nowQ iff it is scheduled for t == now while the
//     clock is at now. nowQ is therefore seq-ordered by construction
//     (seq increases monotonically with scheduling order).
//  2. Any heap event with at == now was necessarily scheduled while the
//     clock was still behind now, i.e. before every nowQ entry, so it has a
//     smaller seq and must pop first.
//
// pop therefore drains same-time heap entries, then the ring, and only then
// advances the clock — at which point the ring is empty and the invariants
// re-establish themselves at the new instant.
//
// Lazy cancellation: events carry a canceled flag instead of being removed
// from the middle of the heap (an O(n) search plus an O(log n) fix-up).
// A teardown (process exit with a wake still pending, interrupt machinery
// retiring a wait) just flips the flag; the dispatch loop discards canceled
// events when they surface. See DESIGN.md §11.

// event is a scheduled occurrence. Exactly one of proc/fn is set: proc
// events resume a parked process; fn events run a callback in engine
// context (callbacks must not block). canceled marks a lazily-removed
// event that the dispatch loop discards on pop. next links a future event
// to the one behind it in its run (same at, larger seq).
type event struct {
	at       Time
	seq      uint64
	next     *event
	proc     *Proc
	fn       func()
	canceled bool
}

// before reports whether a pops before b.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue holds all pending events. The zero value is an empty queue.
type eventQueue struct {
	heap   []*event // 4-ary min-heap of run heads on (at, seq)
	tail   *event   // the newest run's last event (see the header)
	tailAt Time     // tail's at when it was pushed, shifted with the queue
	nowQ   []*event // FIFO of events at the current instant; valid from head on
	head   int
}

// appendTo appends every pending event to evs, in no particular order.
func (q *eventQueue) appendTo(evs []*event) []*event {
	for _, ev := range q.heap {
		for ; ev != nil; ev = ev.next {
			evs = append(evs, ev)
		}
	}
	return append(evs, q.nowQ[q.head:]...)
}

// shift moves every pending event d later. Runs stay runs and the order is
// unchanged.
func (q *eventQueue) shift(d Duration) {
	q.tailAt = q.tailAt.Add(d)
	for _, ev := range q.heap {
		for ; ev != nil; ev = ev.next {
			ev.at = ev.at.Add(d)
		}
	}
	for _, ev := range q.nowQ[q.head:] {
		ev.at = ev.at.Add(d)
	}
}

// pushNow appends an event scheduled at the current instant.
func (q *eventQueue) pushNow(ev *event) { q.nowQ = append(q.nowQ, ev) }

// chain makes a future event the tail of the newest run. It reports true
// when the event joined the previous tail's run (same instant) and false
// when the caller must pushHeap it as a new run. The two stay separate so
// that both inline into schedule.
func (q *eventQueue) chain(ev *event) bool {
	if ev.at != q.tailAt {
		q.tail, q.tailAt = ev, ev.at
		return false
	}
	q.tail.next = ev
	q.tail = ev
	return true
}

// pushHeap inserts a future event that chain did not take as a new run head.
func (q *eventQueue) pushHeap(ev *event) {
	h := append(q.heap, ev)
	q.heap = h
	// Sift up.
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		p := h[parent]
		if p.before(ev) {
			break
		}
		h[i] = p
		i = parent
	}
	h[i] = ev
}

// pop removes and returns the next event in (at, seq) order, or nil if the
// queue is empty. Canceled events are returned like any other; the caller
// discards them (they still advance the clock, matching the old engine's
// stale-wakeup handling).
func (q *eventQueue) pop() *event {
	if q.head < len(q.nowQ) {
		// Same-time heap entries predate every ring entry (smaller seq).
		if len(q.heap) > 0 && q.heap[0].at <= q.nowQ[q.head].at {
			return q.popHeap()
		}
		ev := q.nowQ[q.head]
		q.nowQ[q.head] = nil
		q.head++
		if q.head == len(q.nowQ) {
			q.nowQ = q.nowQ[:0]
			q.head = 0
		}
		return ev
	}
	if len(q.heap) == 0 {
		return nil
	}
	return q.popHeap()
}

func (q *eventQueue) popHeap() *event {
	h := q.heap
	top := h[0]
	x := top.next
	if x != nil {
		// The run's next event takes the root.
		top.next = nil
	} else {
		// The last leaf does.
		n := len(h) - 1
		x = h[n]
		h[n] = nil
		h = h[:n]
		q.heap = h
		if n == 0 {
			return top
		}
	}
	// Sift x down from the root.
	n := len(h)
	i := 0
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		// Find the least of up to four children.
		min := c
		mv := h[c]
		for k := c + 1; k < c+4 && k < n; k++ {
			if v := h[k]; v.before(mv) {
				min, mv = k, v
			}
		}
		if x.before(mv) {
			break
		}
		h[i] = mv
		i = min
	}
	h[i] = x
	return top
}
