package bench

// Fast-forward of a net cell's steady state (DESIGN.md §17). A ping-pong or
// windowed loop in a fault-free cell repeats itself: iteration k+1 is
// iteration k shifted by a constant period. Every rank body runs its loop as
// `for it := range cfg.loop(p, lo, hi)`; at each loop head of rank 0 the
// controller encodes the whole simulation's state relative to now, and once
// that state and the period have repeated ffRepeats times in a row it skips
// the middle of the phase: the clock, every pending event, port horizon and
// in-service stream operation move m periods later, the trace gains m
// shifted copies of the last period's records, and every rank's loop will
// jump m iterations when it reaches the phase's end. What the cell reports
// — its value, its end, every span — is bit for bit what the full run
// reports; TestPhantomEqualsReal, TestFastForwardEqualsFull and
// FuzzFastForward hold it to that.

import (
	"bytes"
	"iter"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ffRepeats is how many consecutive loop heads must each repeat the previous
// head's state and period for the controller to skip: three equal states.
const ffRepeats = 2

// fastForward is one cell's controller. Every rank process runs on the one
// engine goroutine, so it needs no lock.
type fastForward struct {
	warmup int // iterations in the first phase
	// log is the run's span log, whose records the state includes: the
	// cell's own, or a private one (private set), so that whether the
	// caller records spans never changes what the controller decides.
	log     *trace.Log
	private bool
	envs    []*core.Env // by rank, as bind saw them
	loops   []*ffLoop   // by rank

	// Detection, at rank 0's loop heads: the previous head's state, time
	// and trace length, and the period that led to it.
	state, prev []byte
	prevAt      sim.Time
	prevMark    int
	period      sim.Duration
	repeats     int
	skipped     [2]bool // per phase: one skip each
	// off is set once the engine or the fabric refuses to encode itself:
	// what they refuse (an instrument, a switched topology) lasts the run.
	off bool

	// simulated counts the iterations rank 0 ran.
	simulated int
}

// ffLoop is one rank's loop.
type ffLoop struct {
	stream *gpu.Stream // the stream whose daemon runs it (a device kernel), or nil
	active bool        // between its first and its last iteration
	cur    int         // the iteration it is in
	// A pending skip: on reaching index from, the loop goes on at to.
	from, to int
}

// newFastForward returns the controller for a cell whose first phase is
// warmup iterations long, or nil when the cell must run in full: its answer
// then depends on more than lengths and shifted time (a fault plan, a
// metrics registry, functional payloads, a switched topology whose adaptive
// routing reads absolute time), or a test asked for the full run.
func (cfg NetConfig) newFastForward(warmup int) *fastForward {
	if cfg.full || cfg.faults != nil || cfg.metrics != nil || cfg.functional ||
		cfg.Model.Topology.Kind != fabric.TopoFlat {
		return nil
	}
	f := &fastForward{warmup: warmup, log: cfg.trace, envs: make([]*core.Env, 2), loops: make([]*ffLoop, 2)}
	if f.log == nil {
		f.log, f.private = trace.New(), true
	}
	return f
}

// bind registers the calling rank's environment; both ranks call it first.
func (f *fastForward) bind(env *core.Env) {
	if f != nil {
		f.envs[env.WorldRank()] = env
	}
}

// loop yields lo, lo+1, ..., hi-1 to the rank body running on p (its host
// process, or a device kernel's stream daemon), except that after a skip it
// jumps from an index inside the phase to the phase's end. The first phase
// is the cell's warmup iterations; the body's own `it == lo+warmup` test
// (the barrier before the timed loop) and the loop exit always run for real.
func (cfg NetConfig) loop(p *sim.Proc, lo, hi int) iter.Seq[int] {
	f := cfg.ff
	return func(yield func(int) bool) {
		if f == nil {
			for it := lo; it < hi; it++ {
				if !yield(it) {
					return
				}
			}
			return
		}
		rank, l := f.enter(p)
		defer func() { l.active = false }()
		for it := lo; it < hi; it++ {
			if it == l.from {
				it, l.from = l.to, -1
				if it >= hi {
					return
				}
			}
			l.cur = it
			if rank == 0 {
				f.head(lo, hi, it)
			}
			if !yield(it) {
				return
			}
		}
	}
}

// enter registers p's loop and returns its rank.
func (f *fastForward) enter(p *sim.Proc) (int, *ffLoop) {
	for r, env := range f.envs {
		if env == nil {
			continue
		}
		l := &ffLoop{active: true, from: -1}
		if env.Proc() != p {
			if l.stream = env.Device().StreamOf(p); l.stream == nil {
				continue
			}
		}
		f.loops[r] = l
		return r, l
	}
	panic("bench: loop run by a process of no rank")
}

// head is rank 0's loop head before iteration it of [lo, hi): it takes the
// state, compares it with the last head's, and skips when the state and the
// period have repeated ffRepeats times.
func (f *fastForward) head(lo, hi, it int) {
	f.simulated++
	if f.off {
		return
	}
	eng := f.envs[0].Device().Engine()
	now := eng.Now()
	end, phase := lo+f.warmup, 0
	if it >= end {
		end, phase = hi, 1
	}
	state, ok := f.appendState(f.state[:0], now, it, lo+f.warmup)
	state = f.log.AppendSince(state, f.prevMark, f.prevAt)
	period := now.Sub(f.prevAt)
	if ok && f.prev != nil && period == f.period && bytes.Equal(state, f.prev) {
		f.repeats++
	} else {
		f.repeats = 0
	}
	from := f.prevMark
	f.state, f.prev = f.prev, state
	if !ok {
		f.prev = nil
	}
	f.prevAt, f.prevMark, f.period = now, f.log.Len(), period
	if f.repeats < ffRepeats || f.skipped[phase] {
		return
	}
	lead := it
	for _, l := range f.loops {
		lead = max(lead, l.cur)
	}
	// Every rank must still meet the jump index, and the phase's last
	// iteration must run for real.
	m := end - 1 - lead
	if m < 1 {
		return
	}
	f.skipped[phase] = true
	d := sim.Duration(m) * period
	eng.Shift(d)
	f.envs[0].Device().Cluster().Fabric.Shift(d)
	for _, env := range f.envs {
		for _, s := range env.Device().Streams() {
			if !f.isLoopStream(s) {
				s.Shift(d)
			}
		}
	}
	if !f.private {
		f.log.Repeat(from, f.prevMark, m, period)
	}
	f.prev, f.prevAt, f.prevMark, f.repeats = nil, eng.Now(), f.log.Len(), 0
	for _, l := range f.loops {
		l.from, l.to = end-m, end
	}
}

// isLoopStream reports whether s runs a rank's loop (a device kernel that
// started before the loop and is the loop itself: neither its start nor its
// being in service is periodic).
func (f *fastForward) isLoopStream(s *gpu.Stream) bool {
	for _, l := range f.loops {
		if l != nil && l.stream == s {
			return true
		}
	}
	return false
}

// appendState encodes the simulation's state relative to now at rank 0's
// head before iteration it: the engine's events and processes, every rank's
// iteration relative to rank 0's, the ports' horizons, every stream but the
// loops' own, and the libraries' queues and outstanding operations. ok is
// false when the state is not comparable: a rank outside its loop or in
// another phase, or a component that cannot encode itself.
func (f *fastForward) appendState(b []byte, now sim.Time, it, split int) ([]byte, bool) {
	env0 := f.envs[0]
	b, ok := env0.Device().Engine().AppendState(b)
	if ok {
		b, ok = env0.Device().Cluster().Fabric.AppendState(b, now)
	}
	if !ok {
		f.off = true
		return b, false
	}
	for _, l := range f.loops {
		if l == nil || !l.active || (l.cur < split) != (it < split) {
			return b, false
		}
		b = append(b, byte(l.cur-it))
	}
	for _, env := range f.envs {
		for _, s := range env.Device().Streams() {
			if f.isLoopStream(s) {
				continue
			}
			if b, ok = s.AppendState(b, now); !ok {
				return b, false
			}
		}
		b = env.MPIComm().AppendQueues(b)
		switch env.Backend() {
		case core.GpushmemBackend:
			b = env.ShmemPE().AppendState(b)
		case core.GpucclBackend:
			b = env.CCLComm().AppendPending(b)
		}
	}
	return b, true
}
