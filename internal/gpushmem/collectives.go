package gpushmem

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Team collectives over the world team. NVSHMEM provides barrier,
// broadcast, reductions, and fcollect natively; variable-size gathers are
// emulated with Put/Get plus barriers — the same strategy the paper
// describes for UNICONN's GPUSHMEM backend (§V-A).
//
// All PEs must invoke the same collectives in the same order per API
// flavour. Functional results are computed in a deterministic rank order
// when the last PE arrives; timing advances through per-round transfers.

type instKey struct {
	seq  uint64
	kind string
}

// collInst is the shared state of one in-flight collective.
type collInst struct {
	arrived int
	ready   *sim.Gate
	stepRdv *sim.Rendezvous
	sends   []gpu.View
	recvs   []gpu.View
}

func (pe *PE) instanceFor(key instKey) *collInst {
	inst := pe.w.insts[key]
	if inst == nil {
		n := pe.Size()
		inst = &collInst{
			ready:   sim.NewGate(fmt.Sprintf("shmem-%s-%d", key.kind, key.seq)),
			stepRdv: sim.NewRendezvous(fmt.Sprintf("shmem-step-%s-%d", key.kind, key.seq), n),
			sends:   make([]gpu.View, n),
			recvs:   make([]gpu.View, n),
		}
		pe.w.insts[key] = inst
	}
	return inst
}

func (inst *collInst) arrive(p *sim.Proc, pe *PE, send, recv gpu.View, key instKey, dataFn func(*collInst)) {
	inst.sends[pe.rank] = send
	inst.recvs[pe.rank] = recv
	inst.arrived++
	if inst.arrived == pe.Size() {
		if dataFn != nil {
			dataFn(inst)
		}
		delete(pe.w.insts, key)
		inst.ready.Fire(p.Engine())
		return
	}
	inst.ready.Wait(p)
}

// exchangeRounds runs the dissemination/recursive-doubling timing skeleton:
// per round, each PE sends bytes to a derived peer and all PEs stay in
// lockstep.
func (pe *PE) exchangeRounds(p *sim.Proc, inst *collInst, api machine.API,
	rounds int, peerOf func(round int) int, bytesOf func(round int) int64) {

	fab := pe.w.cluster.Fabric
	cl := pe.w.cluster
	for r := 0; r < rounds; r++ {
		inst.stepRdv.Arrive(p)
		peer := peerOf(r)
		bytes := bytesOf(r)
		if peer != pe.rank && peer >= 0 {
			path := fab.PathBetween(pe.rank, peer)
			cost := cl.Cost(machine.LibGPUSHMEM, api, path, bytes)
			end := fab.Transfer(p.Now(), pe.rank, peer, bytes, cost)
			p.AdvanceTo(end)
		}
	}
	inst.stepRdv.Arrive(p)
}

func log2Ceil(n int) int {
	r := 0
	for v := 1; v < n; v <<= 1 {
		r++
	}
	return r
}

// barrierBody implements barrier_all as a dissemination exchange of empty
// messages.
func (pe *PE) barrierBody(p *sim.Proc, key instKey, api machine.API) {
	if h := pe.w.collHist(key.kind); h != nil {
		start := p.Now()
		defer func() { h.Observe(int64(p.Now().Sub(start))) }()
	}
	inst := pe.instanceFor(key)
	inst.arrive(p, pe, gpu.View{}, gpu.View{}, key, nil)
	n := pe.Size()
	pe.exchangeRounds(p, inst, api, log2Ceil(n),
		func(r int) int { return (pe.rank + (1 << r)) % n },
		func(int) int64 { return 8 })
}

// allReduceBody: recursive-doubling timing, deterministic rank-ordered data.
func (pe *PE) allReduceBody(p *sim.Proc, key instKey, send, recv gpu.View, opr gpu.ReduceOp, api machine.API) {
	if h := pe.w.collHist(key.kind); h != nil {
		start := p.Now()
		defer func() { h.Observe(int64(p.Now().Sub(start))) }()
	}
	inst := pe.instanceFor(key)
	count := send.Len()
	n := pe.Size()
	inst.arrive(p, pe, send, recv, key, func(inst *collInst) {
		// Accumulate in rank 0's destination and fan out from it. Every
		// send is consumed before any other destination — which may be
		// its rank's send buffer — is overwritten.
		gpu.ReduceAll(inst.recvs[0], inst.sends, count, opr)
		for r := 1; r < n; r++ {
			gpu.Copy(inst.recvs[r], inst.recvs[0], count)
		}
	})
	bytes := send.Bytes()
	pe.exchangeRounds(p, inst, api, log2Ceil(n),
		func(r int) int {
			peer := pe.rank ^ (1 << r)
			if peer >= n {
				return -1
			}
			return peer
		},
		func(int) int64 { return bytes })
}

// broadcastBody: the root puts to every PE; others wait.
func (pe *PE) broadcastBody(p *sim.Proc, key instKey, buf gpu.View, root int, api machine.API) {
	if h := pe.w.collHist(key.kind); h != nil {
		start := p.Now()
		defer func() { h.Observe(int64(p.Now().Sub(start))) }()
	}
	inst := pe.instanceFor(key)
	n := pe.Size()
	inst.arrive(p, pe, buf, buf, key, func(inst *collInst) {
		src := inst.sends[root]
		for r := 0; r < n; r++ {
			if r != root {
				gpu.Copy(inst.recvs[r], src, src.Len())
			}
		}
	})
	fab := pe.w.cluster.Fabric
	cl := pe.w.cluster
	if pe.rank == root {
		var last sim.Time = p.Now()
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			path := fab.PathBetween(pe.rank, r)
			cost := cl.Cost(machine.LibGPUSHMEM, api, path, buf.Bytes())
			end := fab.Transfer(p.Now(), pe.rank, r, buf.Bytes(), cost)
			if end > last {
				last = end
			}
		}
		p.AdvanceTo(last)
	}
	inst.stepRdv.Arrive(p) // all PEs leave when the slowest put lands
}

// allGathervBody emulates a variable-size allgather with puts + barrier:
// each PE puts its contribution into every other PE's recv buffer at its
// displacement, then all synchronize.
func (pe *PE) allGathervBody(p *sim.Proc, key instKey, send, recv gpu.View, counts, displs []int, api machine.API) {
	if h := pe.w.collHist(key.kind); h != nil {
		start := p.Now()
		defer func() { h.Observe(int64(p.Now().Sub(start))) }()
	}
	inst := pe.instanceFor(key)
	n := pe.Size()
	me := pe.rank
	inst.arrive(p, pe, send, recv, key, func(inst *collInst) {
		for r := 0; r < n; r++ {
			for dst := 0; dst < n; dst++ {
				gpu.Copy(inst.recvs[dst].Slice(displs[r], counts[r]), inst.sends[r], counts[r])
			}
		}
	})
	fab := pe.w.cluster.Fabric
	cl := pe.w.cluster
	bytes := send.Bytes()
	var last = p.Now()
	for off := 1; off < n; off++ {
		dst := (me + off) % n
		path := fab.PathBetween(me, dst)
		cost := cl.Cost(machine.LibGPUSHMEM, api, path, bytes)
		end := fab.Transfer(p.Now(), me, dst, bytes, cost)
		if end > last {
			last = end
		}
	}
	p.AdvanceTo(last)
	inst.stepRdv.Arrive(p) // barrier: everyone's puts delivered
}

// --- Device-side collectives ---

func (pe *PE) devKey(kind string) instKey {
	pe.devOpSeq++
	return instKey{seq: pe.devOpSeq, kind: kind}
}

// DevBarrierAll is nvshmem_barrier_all from kernel code (requires
// CollectiveLaunch).
func (pe *PE) DevBarrierAll(k *gpu.KernelCtx) {
	pe.callCost(k.P, machine.APIDevice)
	pe.barrierBody(k.P, pe.devKey("d-barrier"), machine.APIDevice)
}

// DevAllReduce reduces send into recv on every PE from kernel code.
func (pe *PE) DevAllReduce(k *gpu.KernelCtx, send, recv gpu.View, opr gpu.ReduceOp) {
	pe.callCost(k.P, machine.APIDevice)
	pe.allReduceBody(k.P, pe.devKey("d-allreduce"), send, recv, opr, machine.APIDevice)
}

// DevBroadcast broadcasts root's buf from kernel code.
func (pe *PE) DevBroadcast(k *gpu.KernelCtx, buf gpu.View, root int) {
	pe.callCost(k.P, machine.APIDevice)
	pe.broadcastBody(k.P, pe.devKey("d-broadcast"), buf, root, machine.APIDevice)
}

// DevAllGatherv emulates a variable-size allgather from kernel code.
func (pe *PE) DevAllGatherv(k *gpu.KernelCtx, send, recv gpu.View, counts, displs []int) {
	pe.callCost(k.P, machine.APIDevice)
	pe.allGathervBody(k.P, pe.devKey("d-allgatherv"), send, recv, counts, displs, machine.APIDevice)
}

// --- Host-side stream-ordered collectives ---

func (pe *PE) hostKey(kind string) instKey {
	pe.devOpSeq++ // host collectives share the ordering space: all PEs
	return instKey{seq: pe.devOpSeq, kind: kind}
}

// BarrierAllOnStream enqueues a barrier_all on the stream.
func (pe *PE) BarrierAllOnStream(p *sim.Proc, s *gpu.Stream) {
	key := pe.hostKey("h-barrier")
	pe.hostEnqueue(p, s, "barrier-all", func(sp *sim.Proc) {
		pe.barrierBody(sp, key, machine.APIHost)
	})
}

// AllReduceOnStream enqueues an allreduce on the stream.
func (pe *PE) AllReduceOnStream(p *sim.Proc, s *gpu.Stream, send, recv gpu.View, opr gpu.ReduceOp) {
	key := pe.hostKey("h-allreduce")
	pe.hostEnqueue(p, s, "allreduce", func(sp *sim.Proc) {
		pe.allReduceBody(sp, key, send, recv, opr, machine.APIHost)
	})
}

// BroadcastOnStream enqueues a broadcast on the stream.
func (pe *PE) BroadcastOnStream(p *sim.Proc, s *gpu.Stream, buf gpu.View, root int) {
	key := pe.hostKey("h-broadcast")
	pe.hostEnqueue(p, s, "broadcast", func(sp *sim.Proc) {
		pe.broadcastBody(sp, key, buf, root, machine.APIHost)
	})
}

// AllGathervOnStream enqueues the emulated variable-size allgather on the
// stream.
func (pe *PE) AllGathervOnStream(p *sim.Proc, s *gpu.Stream, send, recv gpu.View, counts, displs []int) {
	key := pe.hostKey("h-allgatherv")
	pe.hostEnqueue(p, s, "allgatherv", func(sp *sim.Proc) {
		pe.allGathervBody(sp, key, send, recv, counts, displs, machine.APIHost)
	})
}
