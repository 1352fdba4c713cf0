package gpushmem

import (
	"repro/internal/gpu"
	"repro/internal/lockstep"
	"repro/internal/machine"
	"repro/internal/sim"
)

// One-sided data movement. Device-side entry points (DevXxx) are called
// from kernel bodies with the kernel's context; host-side entry points
// (XxxOnStream) enqueue the operation on a stream, like the nvshmemx
// *_on_stream API. Both funnel into the same transfer core.

// put is one in-flight one-sided transfer: the payload, the optional signal
// applied at delivery, and the gate a blocking caller waits on. The gate is
// embedded and deliverFn bound once, and a delivered put returns to its PE's free
// list, so a put in steady state allocates nothing.
type put struct {
	pe        *PE
	dst, src  gpu.View
	n         int
	sig       SigRef // the zero SigRef: no signal
	sigRank   int
	sigOp     SignalOp
	sigVal    uint64
	done      sim.Gate
	deliverFn func()
}

// deliver is the arrival callback: the payload lands, the signal (if any)
// fires, and the put completes for Quiet and for a blocked caller.
func (t *put) deliver() {
	pe, eng := t.pe, t.pe.w.cluster.Eng
	gpu.Copy(t.dst, t.src, t.n)
	if t.sig != (SigRef{}) {
		t.sig.apply(eng, t.sigRank, t.sigOp, t.sigVal)
	}
	pe.completed.Add(eng, 1)
	t.done.Fire(eng)
	*t = put{pe: pe, deliverFn: t.deliverFn}
	pe.freePuts = append(pe.freePuts, t)
}

// transfer moves the payload of one put (issuer pe, data pe→target),
// applies the optional signal on the target at delivery, and charges
// completion to the issuing PE's NBI accounting; with wait set it blocks
// that process until then.
func (pe *PE) transfer(eng *sim.Engine, at sim.Time, dst gpu.View, src gpu.View, n int,
	target int, api machine.API, gran ThreadGroup, sig SigRef, sigOp SignalOp, sigVal uint64, wait *sim.Proc) {
	fab := pe.w.cluster.Fabric
	bytes := int64(n) * int64(src.ElemSize())
	path := fab.PathBetween(pe.rank, target)
	cost := pe.w.cluster.Model.Cost(machine.LibGPUSHMEM, api, path, bytes)
	if api == machine.APIDevice {
		cost.BytesPerSec *= gran.granEff()
	}
	arrive := fab.Transfer(at, pe.rank, target, bytes, cost)
	var t *put
	if k := len(pe.freePuts); k > 0 {
		t, pe.freePuts = pe.freePuts[k-1], pe.freePuts[:k-1]
	} else {
		t = &put{pe: pe}
		t.deliverFn = t.deliver
	}
	t.dst, t.src, t.n = dst, src, n
	t.sig, t.sigRank, t.sigOp, t.sigVal = sig, target, sigOp, sigVal
	t.done.SetLabel("gate put")
	pe.issued.Add(eng, 1)
	eng.After(arrive.Sub(eng.Now()), t.deliverFn)
	if wait != nil {
		t.done.Wait(wait)
	}
}

// callCost charges the per-call overhead of the API flavour.
func (pe *PE) callCost(p *sim.Proc, api machine.API) {
	p.Advance(pe.model().Profile(machine.LibGPUSHMEM, api).CallOverhead)
}

// --- Device-side API (call from kernel bodies) ---

// DevPutNBI is nvshmem_put_nbi: non-blocking one-sided write of n elements
// of src into dest on the target PE.
func (pe *PE) DevPutNBI(k *gpu.KernelCtx, g ThreadGroup, dest SymRef, src gpu.View, n, target int) {
	pe.callCost(k.P, machine.APIDevice)
	pe.transfer(k.P.Engine(), k.P.Now(), dest.on(target).Slice(0, n), src, n,
		target, machine.APIDevice, g, SigRef{}, SignalSet, 0, nil)
}

// DevPutSignalNBI is nvshmemx_put_signal_nbi: like DevPutNBI but updates the
// signal word on the target after the payload is delivered.
func (pe *PE) DevPutSignalNBI(k *gpu.KernelCtx, g ThreadGroup, dest SymRef, src gpu.View, n int,
	sig SigRef, sigVal uint64, sigOp SignalOp, target int) {
	pe.callCost(k.P, machine.APIDevice)
	pe.transfer(k.P.Engine(), k.P.Now(), dest.on(target).Slice(0, n), src, n,
		target, machine.APIDevice, g, sig, sigOp, sigVal, nil)
}

// DevSignalWaitUntil is nvshmem_signal_wait_until on the local PE.
func (pe *PE) DevSignalWaitUntil(k *gpu.KernelCtx, sig SigRef, cmp Cmp, val uint64) {
	pe.callCost(k.P, machine.APIDevice)
	sig.counter(pe.rank).WaitUntil(k.P, func(v uint64) bool { return cmp.match(v, val) })
}

// DevQuiet is nvshmem_quiet: waits for completion of all NBI operations
// issued by this PE.
func (pe *PE) DevQuiet(k *gpu.KernelCtx) {
	pe.callCost(k.P, machine.APIDevice)
	target := pe.issued.Value()
	pe.completed.WaitGE(k.P, target)
}

// --- Host-side stream-ordered API (nvshmemx *_on_stream) ---

// PutSignalOnStream enqueues a put-with-signal on the stream.
func (pe *PE) PutSignalOnStream(p *sim.Proc, s *gpu.Stream, dest SymRef, src gpu.View, n int,
	sig SigRef, sigVal uint64, sigOp SignalOp, target int) {
	pe.hostEnqueue(p, s, pe.w.putSignalLabels.For(target), func(sp *sim.Proc) {
		pe.transfer(sp.Engine(), sp.Now(), dest.on(target).Slice(0, n), src, n,
			target, machine.APIHost, Block, sig, sigOp, sigVal, sp)
	})
}

// PutOnStream enqueues a put on the stream.
func (pe *PE) PutOnStream(p *sim.Proc, s *gpu.Stream, dest SymRef, src gpu.View, n, target int) {
	pe.hostEnqueue(p, s, pe.w.putLabels.For(target), func(sp *sim.Proc) {
		pe.transfer(sp.Engine(), sp.Now(), dest.on(target).Slice(0, n), src, n,
			target, machine.APIHost, Block, SigRef{}, SignalSet, 0, sp)
	})
}

// SignalWaitOnStream enqueues a signal wait: subsequent stream work does not
// run until the local signal word satisfies the comparison.
func (pe *PE) SignalWaitOnStream(p *sim.Proc, s *gpu.Stream, sig SigRef, cmp Cmp, val uint64) {
	pe.hostEnqueue(p, s, "signal-wait", func(sp *sim.Proc) {
		sig.counter(pe.rank).WaitUntil(sp, func(v uint64) bool { return cmp.match(v, val) })
	})
}

// QuietOnStream enqueues a quiet on the stream.
func (pe *PE) QuietOnStream(p *sim.Proc, s *gpu.Stream) {
	pe.hostEnqueue(p, s, "quiet", func(sp *sim.Proc) {
		target := pe.issued.Value()
		pe.completed.WaitGE(sp, target)
	})
}

// hostEnqueue places one host-API operation on the stream, paying the
// host-side call and stream-launch overheads.
func (pe *PE) hostEnqueue(p *sim.Proc, s *gpu.Stream, label string, run func(sp *sim.Proc)) {
	prof := pe.model().Profile(machine.LibGPUSHMEM, machine.APIHost)
	p.Advance(prof.CallOverhead)
	s.Enqueue(label, func(sp *sim.Proc) {
		sp.Advance(prof.LaunchOverhead)
		run(sp)
	})
}

// CollectiveLaunch launches a kernel that may use device-side collective
// operations (nvshmemx_collective_launch). All PEs must call it; the
// kernels start together once every PE's launch reaches the GPU, mirroring
// the grid-wide cooperative-launch requirement.
func (pe *PE) CollectiveLaunch(p *sim.Proc, s *gpu.Stream, k *gpu.Kernel, args any) {
	pe.launchSeq++
	key := lockstep.Key{Seq: pe.launchSeq, Kind: "coll-launch"}
	inner := *k
	body := inner.Body
	inner.Body = func(kc *gpu.KernelCtx) {
		pe.w.insts.Arrive(kc.P, key, &pe.world.g, gpu.View{}, gpu.View{}, nil)
		if body != nil {
			body(kc)
		}
	}
	s.Launch(p, &inner, args)
}
