package core

// Fast-forward of a periodic loop's steady state (DESIGN.md §17). A loop in a
// fault-free launch — a ping-pong, a windowed stream, a solver iteration —
// often repeats itself: from some iteration on, the state at every loop head
// is the state k heads earlier shifted by a constant period. Every rank runs
// its loop as `for it := range env.Loop(p, lo, hi)`; at each loop head of
// rank 0 the controller encodes the whole simulation's state relative to now
// — that and nothing else: it digests no span history, so a traced launch
// decides as an untraced one — and once the last cycle of k heads has
// repeated ffRepeats times it skips the middle of the phase: the clock, every
// pending event, port horizon and in-service stream operation move a whole
// number of cycles later, the trace gains that many shifted copies of the
// last cycle's records, the registry and the ports' busy times that many
// times the last cycle's gain, and every rank's loop will jump the skipped
// iterations when it reaches the phase's end. What the launch reports — its
// values, its end, every span and metric — is bit for bit what the full run
// reports; the differential tests in internal/bench and internal/solver hold
// it to that.

import (
	"bytes"
	"encoding/binary"
	"iter"
	"slices"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/trace"
)

const (
	// ffRepeats is how many times in a row the last cycle must repeat the
	// one before it for the controller to skip: three equal cycles.
	ffRepeats = 2
	// ffMaxCycle is the longest cycle of loop heads the controller detects.
	ffMaxCycle = 8
	// ffRunAhead is how many heads setting a backlog high (runsAhead) show
	// that a loop runs ahead.
	ffRunAhead = 4
)

// fastForward is one launch's loop controller. Every rank process runs on
// the one engine goroutine, so it needs no lock.
type fastForward struct {
	warmup int // iterations in the first phase
	// log is the caller's span log, nil when it records none: a skip
	// repeats its last cycle's records. The state never reads it, so
	// whether the caller records spans never changes a decision.
	log   *trace.Log
	envs  []*Env    // by rank, bound by launch
	loops []*ffLoop // by rank
	// loopStreams are the streams whose daemons run a rank's loop (a device
	// kernel that started before the loop and is the loop itself: neither
	// its start nor its being in service is periodic).
	loopStreams []*gpu.Stream

	// Detection, at rank 0's loop heads: the last ffMaxCycle+2 heads, the
	// newest at heads[len-1], and per cycle length k how many heads in a
	// row matched the head k before them.
	heads   []ffHead
	runs    [ffMaxCycle + 1]int
	skipped [2]bool // per phase: one skip each
	highs   int     // heads since the last skip whose backlog set a high (runsAhead)
	// off is set once the engine or the fabric refuses to encode itself —
	// what they refuse (an instrument, a switched topology) lasts the run —
	// or once the loop runs ahead.
	off bool

	// simulated counts the iterations rank 0 ran.
	simulated int
}

// ffHead is one of rank 0's loop heads: the state there (nil when it was not
// comparable), its time, the caller's span count (0 without a log) and rank
// 0's backlog.
type ffHead struct {
	state   []byte
	at      sim.Time
	mark    int
	backlog uint64
	obs     []int64 // with a registry: the ports' busy times, then the registry's mark
}

// ffLoop is one rank's loop.
type ffLoop struct {
	active bool // between its first and its last iteration
	cur    int  // the iteration it is in
	// A pending skip: on reaching index from, the loop goes on at to.
	from, to int
}

// LaunchLoops is Launch for ranks that run periodic loops (Env.Loop) whose
// first phase is warmup iterations long: a controller fast-forwards their
// steady state, unless full is set or a fault plan is: a plan's slow-rank
// factors (ComputeFault) are encoded nowhere, where the encoders refuse at
// every head what else reads absolute time. It also reports how many
// iterations rank 0 simulated, or -1 when the launch ran without a
// controller. Whether cfg records spans or metrics changes no decision; a
// launch without a span log gets none. A skipped iteration computes nothing,
// so a launch whose payloads are real must set full unless each iteration
// rewrites its outputs from inputs that no iteration writes: then the last
// simulated iteration leaves the outputs a full run leaves.
func LaunchLoops(cfg Config, warmup int, full bool, main func(env *Env)) (Report, int, error) {
	if full || cfg.Faults != nil {
		rep, err := Launch(cfg, main)
		return rep, -1, err
	}
	// The pseudo-head at time 0 stands before the first one.
	f := &fastForward{warmup: warmup, log: cfg.Trace, heads: []ffHead{{}},
		envs: make([]*Env, cfg.NGPUs), loops: make([]*ffLoop, cfg.NGPUs)}
	rep, err := launch(cfg, f, main)
	return rep, f.simulated, err
}

// Loop yields lo, lo+1, ..., hi-1 to the rank body running on p (its host
// process, or a device kernel's stream daemon), except that after a skip it
// jumps from an index inside the phase to the phase's end. The first phase
// is the launch's warmup iterations; the body's own `it == lo+warmup` test
// (the barrier before the timed loop) and the loop exit always run for
// real. It is the one loop primitive of every periodic rank body.
func (e *Env) Loop(p *sim.Proc, lo, hi int) iter.Seq[int] {
	f := e.job.ff
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

// enter registers p's loop and returns its rank: the rank whose host
// process p is, or whose device runs p as a stream daemon.
func (f *fastForward) enter(p *sim.Proc) (int, *ffLoop) {
	l := &ffLoop{active: true, from: -1}
	rank := slices.IndexFunc(f.envs, func(env *Env) bool { return env != nil && env.Proc() == p })
	if rank < 0 {
		var s *gpu.Stream
		rank = slices.IndexFunc(f.envs, func(env *Env) bool {
			if env != nil {
				s = env.Device().StreamOf(p)
			}
			return s != nil
		})
		f.loopStreams = append(f.loopStreams, s)
	}
	if rank < 0 {
		panic("core: loop run by a process of no rank")
	}
	f.loops[rank] = l
	return rank, l
}

// head is rank 0's loop head before iteration it of [lo, hi): it takes the
// state, matches it against the last ffMaxCycle heads', and skips when for
// some cycle length k the state and the time over k heads have repeated for
// ffRepeats cycles in a row.
func (f *fastForward) head(lo, hi, it int) {
	f.simulated++
	if f.off {
		return
	}
	// A skip needs ffRepeats heads of its phase before it and a cycle left
	// after it, so no phase shorter than ffRepeats+2 holds one: with none
	// longer, stop before encoding a state.
	if f.simulated == 1 && max(f.warmup, hi-lo-f.warmup) < ffRepeats+2 {
		f.off = true
		return
	}
	eng := f.envs[0].Device().Engine()
	now := eng.Now()
	end, phase := lo+f.warmup, 0
	if it >= end {
		end, phase = hi, 1
	}
	// The new head reuses the buffer of the one that falls out of the window,
	// or starts at the capacity of the head before it.
	var buf []byte
	var obs []int64
	if len(f.heads) == ffMaxCycle+2 {
		buf, obs = f.heads[0].state[:0], f.heads[0].obs[:0]
		f.heads = append(f.heads[:0], f.heads[1:]...)
	} else if c := cap(f.heads[len(f.heads)-1].state); c > 0 {
		buf = make([]byte, 0, c)
	}
	q := f.backlog()
	if f.runsAhead(q) {
		f.off = true
		return
	}
	state, ok := f.appendState(buf, now, it, lo+f.warmup)
	if !ok {
		state = nil
	}
	if cl := f.envs[0].Device().Cluster(); cl.Metrics != nil {
		obs = cl.Metrics.AppendMark(cl.Fabric.AppendBusy(obs))
	}
	f.heads = append(f.heads, ffHead{state: state, at: now, mark: f.log.Len(), backlog: q, obs: obs})
	cycle := 0
	for k := 1; k <= ffMaxCycle; k++ {
		if f.matches(k) {
			f.runs[k]++
		} else {
			f.runs[k] = 0
		}
		if cycle == 0 && f.runs[k] >= ffRepeats*k {
			cycle = k
		}
	}
	if cycle == 0 || f.skipped[phase] {
		return
	}
	lead := it
	for _, l := range f.loops {
		lead = max(lead, l.cur)
	}
	// Every rank must still meet the jump index, the phase's last
	// iteration must run for real, and the skip is whole cycles.
	n := len(f.heads) - 1
	cycles := (end - 1 - lead) / cycle
	if cycles < 1 {
		return
	}
	m := cycles * cycle
	f.skipped[phase] = true
	period := now.Sub(f.heads[n-cycle].at)
	d := sim.Duration(cycles) * period
	eng.Shift(d)
	f.envs[0].Device().Cluster().Fabric.Shift(d)
	for _, env := range f.envs {
		for _, s := range env.Device().Streams() {
			if !f.isLoopStream(s) {
				s.Shift(d)
			}
		}
	}
	f.log.Repeat(f.heads[n-cycle].mark, f.heads[n].mark, cycles, period)
	if cl := f.envs[0].Device().Cluster(); cl.Metrics != nil {
		cl.Metrics.Repeat(cl.Fabric.RepeatBusy(f.heads[n-cycle].obs, int64(cycles)), int64(cycles))
	}
	f.heads = append(f.heads[:0], ffHead{at: eng.Now(), mark: f.log.Len(), backlog: f.backlog()})
	f.runs, f.highs = [ffMaxCycle + 1]int{}, 0
	for _, l := range f.loops {
		l.from, l.to = end-m, end
	}
}

// runsAhead reports whether rank 0's host has run ahead of its device: its
// streams' backlog q at this head exceeds the backlog of each of the last
// ffMaxCycle heads, for the ffRunAhead-th time since the last skip. A head
// that sets such a high lies on no cycle the controller could detect (a
// cycle of k heads has the backlog of the head k before), and a host that
// keeps setting them enqueues faster than its device drains, so its loop
// never repeats (DESIGN.md §17).
func (f *fastForward) runsAhead(q uint64) bool {
	for _, h := range f.heads[max(0, len(f.heads)-ffMaxCycle):] {
		if q <= h.backlog {
			return false
		}
	}
	f.highs++
	return f.highs >= ffRunAhead
}

// backlog is the number of operations queued on rank 0's streams, its loop's
// own excepted.
func (f *fastForward) backlog() uint64 {
	var q uint64
	for _, s := range f.envs[0].Device().Streams() {
		if !f.isLoopStream(s) {
			q += s.Pending()
		}
	}
	return q
}

// matches reports whether the newest head repeats the head k before it: an
// equal, comparable state, reached over k heads in the time the head before
// it took over its k.
func (f *fastForward) matches(k int) bool {
	n := len(f.heads) - 1
	if n-k-1 < 0 {
		return false
	}
	h, was := f.heads[n], f.heads[n-k]
	return h.state != nil && was.state != nil &&
		h.at.Sub(was.at) == f.heads[n-1].at.Sub(f.heads[n-k-1].at) &&
		bytes.Equal(h.state, was.state)
}

// isLoopStream reports whether s runs a rank's loop.
func (f *fastForward) isLoopStream(s *gpu.Stream) bool { return slices.Contains(f.loopStreams, s) }

// appendLoops encodes, at rank 0's head before iteration it, the phase it is
// in and every rank's loop index relative to rank 0's. Heads in different
// phases never match: a cycle across the warm-up barrier would skip it. ok
// is false when a rank is outside its loop or in the other phase.
func (f *fastForward) appendLoops(b []byte, it, split int) ([]byte, bool) {
	var phase byte
	if it >= split {
		phase = 1
	}
	b = append(b, phase)
	for _, l := range f.loops {
		if l == nil || !l.active || (l.cur < split) != (it < split) {
			return b, false
		}
		b = binary.AppendVarint(b, int64(l.cur-it))
	}
	return b, true
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
	if b, ok = f.appendLoops(b, it, split); !ok {
		return b, false
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
		if env.Backend() == GpushmemBackend {
			b = env.ShmemPE().AppendState(b)
		}
	}
	if env0.Backend() == GpucclBackend {
		b = env0.CCLComm().AppendPending(b) // the whole world's
	}
	return b, true
}
