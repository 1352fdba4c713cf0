package sim

import (
	"math/rand"
	"testing"
)

// Property tests for the hand-rolled event queue: against a naive reference
// (a linear scan for the minimum (at, seq)), random interleavings of
// scheduling at the current instant (the nowQ fast path), scheduling into
// the future (a run or the 4-ary heap of run heads), lazy cancellation,
// Shift, rescheduling a popped event, and popping must yield the exact same
// pop order. This is the ordering contract the whole simulator's
// determinism rests on.

// refQueue is the trivially-correct model: an unordered bag popped by
// linear minimum scan. It keeps its own copy of each event's key, so a
// queue that shifts an event twice, or not at all, disagrees with it.
type refQueue struct{ evs []refEntry }

type refEntry struct {
	at  Time
	seq uint64
	ev  *event
}

func (r *refQueue) push(ev *event) { r.evs = append(r.evs, refEntry{ev.at, ev.seq, ev}) }

func (r *refQueue) shift(d Duration) {
	for i := range r.evs {
		r.evs[i].at = r.evs[i].at.Add(d)
	}
}

// pop returns the next event and the time the reference holds for it.
func (r *refQueue) pop() (*event, Time) {
	if len(r.evs) == 0 {
		return nil, 0
	}
	min := 0
	for i, e := range r.evs {
		m := r.evs[min]
		if e.at < m.at || (e.at == m.at && e.seq < m.seq) {
			min = i
		}
	}
	e := r.evs[min]
	r.evs = append(r.evs[:min], r.evs[min+1:]...)
	return e.ev, e.at
}

// push schedules ev as the engine does (Engine.schedule).
func push(q *eventQueue, ev *event, now Time) {
	if ev.at == now {
		q.pushNow(ev)
	} else if !q.chain(ev) {
		q.pushHeap(ev)
	}
}

// pending counts q's events, walking at most limit+1 of them so that a run
// linked into a cycle fails the count instead of hanging.
func pending(q *eventQueue, limit int) int {
	n := len(q.nowQ) - q.head
	for _, ev := range q.heap {
		for ; ev != nil && n <= limit; ev = ev.next {
			n++
		}
	}
	return n
}

// queueModel drives an eventQueue and a refQueue through the engine's
// operations and fails t on the first disagreement.
type queueModel struct {
	t    testing.TB
	q    eventQueue
	ref  refQueue
	now  Time
	seq  uint64
	live []*event // every event scheduled, for cancel
	free []*event // popped events, for reschedule
}

// schedule pushes ev (new, or recycled from free) at now+off.
func (m *queueModel) schedule(ev *event, off Time) {
	m.seq++
	ev.at, ev.seq, ev.canceled = m.now+off, m.seq, false
	push(&m.q, ev, m.now)
	m.ref.push(ev)
	m.live = append(m.live, ev)
}

func (m *queueModel) pop() {
	got := m.q.pop()
	want, at := m.ref.pop()
	if got != want {
		m.t.Fatalf("pop mismatch: queue gave %+v, reference gave %+v", got, want)
	}
	if got == nil {
		return
	}
	if got.at != at || got.at < m.now || got.next != nil {
		m.t.Fatalf("popped %+v: reference time %d, clock %d", got, at, m.now)
	}
	m.now = got.at
	m.free = append(m.free, got)
}

func (m *queueModel) shift(d Duration) {
	m.q.shift(d)
	m.ref.shift(d)
	m.now = m.now.Add(d)
}

func (m *queueModel) check() {
	if n := pending(&m.q, len(m.ref.evs)); n != len(m.ref.evs) {
		m.t.Fatalf("len mismatch: queue holds %d, reference %d", n, len(m.ref.evs))
	}
}

func (m *queueModel) drain() {
	for len(m.ref.evs) > 0 {
		m.pop()
		m.check()
	}
	if ev := m.q.pop(); ev != nil {
		m.t.Fatalf("queue still has %+v after the reference drained", ev)
	}
}

func TestEventQueueMatchesReference(t *testing.T) {
	// A wide spread exercises the heap, a narrow one runs and ties.
	for _, spread := range []int{64, 4} {
		for seed := int64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := &queueModel{t: t}
			for op := 0; op < 4000; op++ {
				switch r := rng.Intn(12); {
				case r < 5: // schedule: half at the current instant, half ahead
					var off Time
					if rng.Intn(2) == 0 {
						off = Time(rng.Intn(spread))
					}
					m.schedule(&event{}, off)
				case r < 7: // lazily cancel something pending (interrupt/teardown)
					if len(m.live) > 0 {
						m.live[rng.Intn(len(m.live))].canceled = true
					}
				case r < 8: // reschedule a popped event, as the free list does
					if n := len(m.free); n > 0 {
						ev := m.free[n-1]
						m.free = m.free[:n-1]
						m.schedule(ev, Time(rng.Intn(spread)))
					}
				case r < 9:
					m.shift(Duration(rng.Intn(spread)))
				default:
					m.pop()
				}
				m.check()
			}
			m.drain()
		}
	}
}

// FuzzEventQueue drives the queue and its reference from bytes: each byte
// is an operation (its value mod 6) and an argument (the rest). Offsets are
// 0..3, so instants tie densely and runs form, break and re-form.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{12, 2, 16, 12, 2, 2})       // a popped tail rescheduled at the tail's next instant
	f.Add([]byte{6, 12, 6, 18, 2, 3, 2})     // runs at 1, 2, 1; a shift
	f.Add([]byte{0, 6, 0, 6, 1, 7, 2, 5, 2}) // now-queue beside a run; cancels
	f.Add([]byte{18, 9, 12, 2, 2})           // a shift, then a push before the shifted tail
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := &queueModel{t: t}
		for _, b := range ops {
			arg := int(b / 6)
			switch b % 6 {
			case 0: // schedule at now (off 0) or 1..3 ahead
				m.schedule(&event{}, Time(arg&3))
			case 1:
				if len(m.live) > 0 {
					m.live[arg%len(m.live)].canceled = true
				}
			case 2, 5:
				m.pop()
			case 3:
				m.shift(Duration(arg & 3))
			case 4: // recycle a popped event and reschedule it
				if n := len(m.free); n > 0 {
					i := arg % n
					ev := m.free[i]
					m.free = append(m.free[:i], m.free[i+1:]...)
					m.schedule(ev, Time(arg&3))
				}
			}
			m.check()
		}
		m.drain()
	})
}

// TestEventQueueSameInstantFIFO pins the nowQ invariant directly: events
// scheduled at the current instant pop in scheduling order, after any heap
// event carrying the same timestamp (which necessarily predates them). It
// also pins runs: a future event joins only the run pushed just before it,
// so A@10, B@20, C@10 pop A, C, B even though C's instant is not B's.
func TestEventQueueSameInstantFIFO(t *testing.T) {
	var q eventQueue
	// Future events scheduled earlier (smaller seq) at t=0.
	push(&q, &event{at: 10, seq: 1}, 0)
	push(&q, &event{at: 20, seq: 2}, 0)
	push(&q, &event{at: 10, seq: 3}, 0)
	push(&q, &event{at: 10, seq: 4}, 0)
	if ev := q.pop(); ev.seq != 1 {
		t.Fatalf("first pop = %+v, want seq 1", ev)
	}
	// Clock reaches 10: same-instant events go through the ring.
	q.pushNow(&event{at: 10, seq: 5})
	q.pushNow(&event{at: 10, seq: 6})
	q.pushNow(&event{at: 10, seq: 7})
	got := []uint64{1}
	for ev := q.pop(); ev != nil; ev = q.pop() {
		got = append(got, ev.seq)
	}
	want := []uint64{1, 3, 4, 5, 6, 7, 2}
	if len(got) != len(want) {
		t.Fatalf("pop order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}
