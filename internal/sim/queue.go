package sim

// The engine's event queue: a hand-rolled 4-ary min-heap ordered by
// (at, seq), plus a FIFO ring of events scheduled at exactly the current
// instant (the "now queue").
//
// Why not container/heap: the interface-based API costs a dynamic dispatch
// per comparison and boxes every push/pop through `any`. The event loop is
// the innermost loop of every simulation, so the queue is monomorphic and
// inlineable. A 4-ary layout halves the tree depth of a binary heap; with
// 8-byte pointers the four children of a node share a cache line, so the
// extra comparisons per level are nearly free and sift-down touches fewer
// lines overall.
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
// event that the dispatch loop discards on pop.
type event struct {
	at       Time
	seq      uint64
	proc     *Proc
	fn       func()
	canceled bool
}

// eventQueue holds all pending events. The zero value is an empty queue.
type eventQueue struct {
	heap []*event // 4-ary min-heap on (at, seq)
	nowQ []*event // FIFO of events at the current instant; valid from head on
	head int
}

func (q *eventQueue) len() int { return len(q.heap) + len(q.nowQ) - q.head }

// pushNow appends an event scheduled at the current instant.
func (q *eventQueue) pushNow(ev *event) { q.nowQ = append(q.nowQ, ev) }

// pushHeap inserts a future event into the heap.
func (q *eventQueue) pushHeap(ev *event) {
	h := append(q.heap, ev)
	q.heap = h
	// Sift up.
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		p := h[parent]
		if p.at < ev.at || (p.at == ev.at && p.seq < ev.seq) {
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
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	q.heap = h
	if n == 0 {
		return top
	}
	// Sift last down from the root.
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
			v := h[k]
			if v.at < mv.at || (v.at == mv.at && v.seq < mv.seq) {
				min, mv = k, v
			}
		}
		if last.at < mv.at || (last.at == mv.at && last.seq < mv.seq) {
			break
		}
		h[i] = mv
		i = min
	}
	h[i] = last
	return top
}
