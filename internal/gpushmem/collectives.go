package gpushmem

import (
	"repro/internal/gpu"
	"repro/internal/lockstep"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Collectives. NVSHMEM provides barrier, broadcast, reductions, and fcollect
// natively; variable-size gathers are emulated with Put/Get plus barriers —
// the same strategy the paper describes for UNICONN's GPUSHMEM backend
// (§V-A).
//
// There is one implementation, on Team, over the shared lockstep skeleton
// (internal/lockstep): functional results are computed in a deterministic
// rank order when the last member arrives; timing advances through per-round
// transfers. The PE-level methods below are the same collectives on the PE's
// world team, issued from the host (a stream op) or from kernel code. All
// members of a team must invoke the same collectives on it in the same order.

// The collective kinds, indexing collKinds and World.mColl.
const (
	kBarrier = iota
	kAllReduce
	kBroadcast
	kAllGatherv
	nKinds
)

// collKinds names each kind per API flavour: the lockstep.Key kind, and the
// suffix of its timing histogram "gpushmem.coll.<kind>".
var collKinds = [2][nKinds]string{
	machine.APIHost:   {"h-barrier", "h-allreduce", "h-broadcast", "h-allgatherv"},
	machine.APIDevice: {"d-barrier", "d-allreduce", "d-broadcast", "d-allgatherv"},
}

// collHists resolves the per-kind timing histograms (in ns) from the
// registry.
func collHists(r *metrics.Registry) (h [2][nKinds]*metrics.Histogram) {
	for api, kinds := range collKinds {
		for k, kind := range kinds {
			h[api][k] = r.Histogram("gpushmem.coll." + kind)
		}
	}
	return h
}

// collective is one collective call apart from how it is issued: its kind
// and arguments (those its kind does not take stay zero).
type collective struct {
	kind           int
	send, recv     gpu.View
	opr            gpu.ReduceOp // allreduce
	root           int          // broadcast
	counts, displs []int        // allgatherv
}

// key draws the team's next collective key. Host and device collectives share
// one ordering space per team.
func (t *Team) key(api machine.API, kind int) lockstep.Key {
	t.opSeq++
	return lockstep.Key{Group: t.g.ID, Seq: t.opSeq, Kind: collKinds[api][kind]}
}

// walk readies the caller's walk through c under api's costs: arrive (the
// last member computes the data), then the kind's schedule.
func (t *Team) walk(api machine.API, key lockstep.Key, c collective) *lockstep.Walk {
	g, n := &t.g, t.g.Size
	switch c.kind {
	case kBarrier:
		// A dissemination exchange of 8-byte flags.
		return t.pe.w.insts.Join(key, g, api, c.send, c.recv, nil).Rounds(lockstep.Log2Ceil(n),
			func(r int) (int, int64) { return (g.Rank + (1 << r)) % n, 8 })
	case kAllReduce:
		// Recursive-doubling timing (partners past the team's end are
		// skipped), deterministic rank-ordered data.
		bytes := c.send.Bytes()
		return t.pe.w.insts.Join(key, g, api, c.send, c.recv, lockstep.ReduceThenCopy(c.send.Len(), c.opr)).
			Rounds(lockstep.Log2Ceil(n), func(r int) (int, int64) { return g.Rank ^ (1 << r), bytes })
	case kBroadcast:
		// The root puts to every member in team-rank order; all leave when
		// the slowest put lands.
		puts := 0
		if g.Rank == c.root {
			puts = n
		}
		return t.pe.w.insts.Join(key, g, api, c.send, c.recv, lockstep.CopyFrom(c.root)).
			FanOut(0, puts, c.send.Bytes())
	default: // kAllGatherv
		// Emulated with puts + barrier: each member puts its contribution
		// into every other member's recv buffer at its displacement, then
		// all synchronize.
		at := func(r int) (int, int) { return c.displs[r], c.counts[r] }
		return t.pe.w.insts.Join(key, g, api, c.send, c.recv, lockstep.Gather(at)).
			FanOut(g.Rank+1, n-1, c.send.Bytes())
	}
}

// onStream issues c through the host API, as the stream op label; the stream
// walks it in its own steps (hostOp).
func (t *Team) onStream(p *sim.Proc, s *gpu.Stream, label string, c collective) {
	o := t.pe.newHostOp(hostColl)
	if o.call == nil {
		o.call, o.dropFn = &hostCall{}, o.drop
	}
	o.call.team, o.call.key, o.call.coll = t, t.key(machine.APIHost, c.kind), c
	t.pe.hostEnqueue(p, s, label, o)
}

// inKernel issues c from kernel code (requires CollectiveLaunch): the body
// walks it, and its duration is observed in the kind's histogram.
func (t *Team) inKernel(k *gpu.KernelCtx, c collective) {
	t.pe.callCost(k.P, machine.APIDevice)
	key := t.key(machine.APIDevice, c.kind)
	if h := t.pe.w.mColl[machine.APIDevice][c.kind]; h != nil {
		start := k.P.Engine().SkipFreeNow()
		defer func() { h.Observe(int64(k.P.Engine().SkipFreeNow().Sub(start))) }()
	}
	t.walk(machine.APIDevice, key, c).Run(k.P)
}

// --- Device-side collectives ---

// DevBarrierAll is nvshmem_barrier_all from kernel code (requires
// CollectiveLaunch).
func (pe *PE) DevBarrierAll(k *gpu.KernelCtx) { pe.world.inKernel(k, collective{kind: kBarrier}) }

// DevAllReduce reduces send into recv on every PE from kernel code.
func (pe *PE) DevAllReduce(k *gpu.KernelCtx, send, recv gpu.View, opr gpu.ReduceOp) {
	pe.world.inKernel(k, collective{kind: kAllReduce, send: send, recv: recv, opr: opr})
}

// DevBroadcast broadcasts root's buf from kernel code.
func (pe *PE) DevBroadcast(k *gpu.KernelCtx, buf gpu.View, root int) {
	pe.world.inKernel(k, collective{kind: kBroadcast, send: buf, recv: buf, root: root})
}

// DevAllGatherv emulates a variable-size allgather from kernel code.
func (pe *PE) DevAllGatherv(k *gpu.KernelCtx, send, recv gpu.View, counts, displs []int) {
	pe.world.inKernel(k, collective{kind: kAllGatherv, send: send, recv: recv, counts: counts, displs: displs})
}

// --- Host-side stream-ordered collectives ---

// AllReduceOnStream enqueues an allreduce on the stream.
func (pe *PE) AllReduceOnStream(p *sim.Proc, s *gpu.Stream, send, recv gpu.View, opr gpu.ReduceOp) {
	pe.world.onStream(p, s, "allreduce", collective{kind: kAllReduce, send: send, recv: recv, opr: opr})
}

// AllGathervOnStream enqueues the emulated variable-size allgather on the
// stream.
func (pe *PE) AllGathervOnStream(p *sim.Proc, s *gpu.Stream, send, recv gpu.View, counts, displs []int) {
	pe.world.onStream(p, s, "allgatherv", collective{kind: kAllGatherv, send: send, recv: recv, counts: counts, displs: displs})
}
