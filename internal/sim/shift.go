package sim

// Fast-forward support. A periodic workload (a ping-pong loop) can read the
// engine's state relative to now at each of its loop boundaries; once the
// state repeats, the same future follows each repetition shifted by the
// period, and its driver moves that future forward by whole periods instead
// of simulating them (internal/core, DESIGN.md §17).

import (
	"cmp"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
)

// AppendState appends an encoding of the engine's state relative to now:
// every pending event in pop order as (at - now, owner, canceled), where the
// owner of a callback is its code (what it captured is its owner's state to
// encode), then every live process in spawn order with why it waits — less
// any "#n" instance number, which a loop carries forward like its index. Equal
// encodings at two instants mean that, as far as the engine can see, it does
// the same things after each, shifted by their distance. ok is false when an
// instrument records absolute time (flight recorder, watchdog, scheduler
// trace).
func (e *Engine) AppendState(b []byte) (_ []byte, ok bool) {
	e.settle()
	if e.fr != nil || e.deadline != 0 || e.trace != nil {
		return b, false
	}
	evs := e.q.appendTo(e.stateEvs[:0])
	slices.SortFunc(evs, eventOrder)
	b = binary.AppendUvarint(b, uint64(len(evs)))
	for _, ev := range evs {
		b = binary.AppendVarint(b, int64(ev.at-e.now))
		if ev.fn != nil {
			b = append(b, 'f')
			b = binary.AppendUvarint(b, uint64(reflect.ValueOf(ev.fn).Pointer()))
		} else {
			b = append(b, 'p')
			b = binary.AppendUvarint(b, ev.proc.id)
		}
		b = appendFlags(b, ev.canceled)
	}
	procs := e.stateProcs[:0]
	for p := range e.alive {
		procs = append(procs, p)
	}
	slices.SortFunc(procs, procOrder)
	b = binary.AppendUvarint(b, uint64(len(procs)))
	for _, p := range procs {
		b = binary.AppendUvarint(b, p.id)
		why, _, _ := strings.Cut(p.parkWhy, "#")
		b = append(append(b, why...), 0)
		b = binary.AppendVarint(b, int64(p.parkDur))
		b = appendFlags(b, p.parked, p.wakePending, p.script != nil, p.interruptible,
			p.pendingErr != nil, p.crashed)
		b = binary.AppendUvarint(b, uint64(len(p.charges)-p.chargeAt))
		for _, d := range p.charges[p.chargeAt:] {
			b = binary.AppendVarint(b, int64(d))
		}
	}
	clear(evs)
	clear(procs)
	e.stateEvs, e.stateProcs = evs[:0], procs[:0]
	return b, true
}

// eventOrder and procOrder are AppendState's sort orders: pop order, and
// spawn order.
func eventOrder(x, y *event) int { return cmp.Or(cmp.Compare(x.at, y.at), cmp.Compare(x.seq, y.seq)) }

func procOrder(x, y *Proc) int { return cmp.Compare(x.id, y.id) }

// appendFlags appends up to eight flags as one byte.
func appendFlags(b []byte, flags ...bool) []byte {
	var v byte
	for i, f := range flags {
		if f {
			v |= 1 << i
		}
	}
	return append(b, v)
}

// Shift moves the clock and every pending event d >= 0 later. Their order is
// unchanged, so the engine after the call is the engine before it, d later.
// Anything outside the engine that holds an absolute time is its owner's to
// shift. Only the ball holder may call it.
func (e *Engine) Shift(d Duration) {
	if d < 0 {
		panic("sim: Shift into the past")
	}
	e.settle()
	e.now = e.now.Add(d)
	e.shifted += d
	e.q.shift(d)
}

// SkipFreeNow is the clock less every Shift: the time the engine simulated.
// A duration whose start is stored across events reads it at both ends, so
// an operation in flight at a skip does not measure the skipped time.
func (e *Engine) SkipFreeNow() Time { return e.Now().Add(-e.shifted) }

// Shift moves the timeline's busy horizon d later, with the engine's clock
// (Engine.Shift). A horizon already in the past stays in the past, where it
// books exactly as now does.
func (t *Timeline) Shift(d Duration) { t.busyUntil = t.busyUntil.Add(d) }

// RepeatBusy adds n times the busy time reserved since BusySum was since,
// for a fast-forward's skip (Shift moves the horizon, not the sum).
func (t *Timeline) RepeatBusy(since Duration, n int64) {
	t.busySum += Duration(n) * (t.busySum - since)
}
