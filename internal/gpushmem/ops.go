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
// completion to the issuing PE's NBI accounting. It returns the put, whose
// gate fires at delivery; the record is recycled right after, so a caller
// that waits enlists on the gate at once and never touches the put again.
func (pe *PE) transfer(eng *sim.Engine, at sim.Time, dst gpu.View, src gpu.View, n int,
	target int, api machine.API, gran ThreadGroup, sig SigRef, sigOp SignalOp, sigVal uint64) *put {
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
	return t
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
		target, machine.APIDevice, g, SigRef{}, SignalSet, 0)
}

// DevPutSignalNBI is nvshmemx_put_signal_nbi: like DevPutNBI but updates the
// signal word on the target after the payload is delivered.
func (pe *PE) DevPutSignalNBI(k *gpu.KernelCtx, g ThreadGroup, dest SymRef, src gpu.View, n int,
	sig SigRef, sigVal uint64, sigOp SignalOp, target int) {
	pe.callCost(k.P, machine.APIDevice)
	pe.transfer(k.P.Engine(), k.P.Now(), dest.on(target).Slice(0, n), src, n,
		target, machine.APIDevice, g, sig, sigOp, sigVal)
}

// DevSignalWaitUntil is nvshmem_signal_wait_until on the local PE.
func (pe *PE) DevSignalWaitUntil(k *gpu.KernelCtx, sig SigRef, cmp Cmp, val uint64) {
	pe.callCost(k.P, machine.APIDevice)
	c := sig.counter(pe.rank)
	if cmp == CmpGE { // the common case, which needs no closure
		c.WaitGE(k.P, val)
		return
	}
	c.WaitUntil(k.P, func(v uint64) bool { return cmp.match(v, val) })
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
	o := pe.newHostOp(hostPut)
	o.dest, o.src, o.n, o.target = dest, src, n, target
	o.sig, o.sigVal, o.sigOp = sig, sigVal, sigOp
	pe.hostEnqueue(p, s, pe.w.putSignalLabels.For(target), o)
}

// PutOnStream enqueues a put on the stream.
func (pe *PE) PutOnStream(p *sim.Proc, s *gpu.Stream, dest SymRef, src gpu.View, n, target int) {
	o := pe.newHostOp(hostPut)
	o.dest, o.src, o.n, o.target = dest, src, n, target
	pe.hostEnqueue(p, s, pe.w.putLabels.For(target), o)
}

// SignalWaitOnStream enqueues a signal wait: subsequent stream work does not
// run until the local signal word satisfies the comparison.
func (pe *PE) SignalWaitOnStream(p *sim.Proc, s *gpu.Stream, sig SigRef, cmp Cmp, val uint64) {
	o := pe.newHostOp(hostSignalWait)
	o.sig, o.cmp, o.val = sig, cmp, val
	pe.hostEnqueue(p, s, "signal-wait", o)
}

// QuietOnStream enqueues a quiet on the stream.
func (pe *PE) QuietOnStream(p *sim.Proc, s *gpu.Stream) {
	pe.hostEnqueue(p, s, "quiet", pe.newHostOp(hostQuiet))
}

// hostEnqueue places one host-API operation on the stream, paying the
// host-side call overhead now and the stream-launch overhead when the stream
// starts it.
func (pe *PE) hostEnqueue(p *sim.Proc, s *gpu.Stream, label string, o *hostOp) {
	prof := pe.model().Profile(machine.LibGPUSHMEM, machine.APIHost)
	p.Charge(prof.CallOverhead) // paid at the stream's mailbox
	o.launch = prof.LaunchOverhead
	s.EnqueueStep(label, o.stepFn, o.dropFn)
}

// hostOp is one host-API operation on a stream as a step machine: the launch
// overhead, then its kind's work — a put that waits for its delivery, a wait
// on a signal word or on the PE's NBI completions, a team collective's walk.
// Records are recycled through their PE, so a host put, signal wait or quiet
// allocates nothing in steady state.
type hostOp struct {
	pe     *PE
	kind   hostKind
	phase  uint8 // 0: launch overhead due, 1: work due, 2: work done
	launch sim.Duration

	// hostPut; sig is also hostSignalWait's signal word.
	dest      SymRef
	src       gpu.View
	n, target int
	sig       SigRef
	sigVal    uint64
	sigOp     SignalOp
	// hostSignalWait, hostQuiet: wait until cmp(value, val).
	cmp Cmp
	val uint64
	// hostColl, kept apart so the far more numerous puts and waits stay
	// small (a host that runs ahead of its stream holds one record per op);
	// a record keeps it across recycling.
	call *hostCall

	stepFn func(sp *sim.Proc) sim.Duration // step, bound once
	dropFn func()                          // drop, bound by the record's first collective
	predFn func(uint64) bool               // pred, bound by the record's first wait
}

// hostCall is a team collective issued through a stream: the call, and its
// walk once started.
type hostCall struct {
	team  *Team
	key   lockstep.Key
	coll  collective
	walk  *lockstep.Walk
	start sim.Time // on the skip-free clock (sim.Engine.SkipFreeNow)
}

type hostKind uint8

const (
	hostPut hostKind = iota
	hostSignalWait
	hostQuiet
	hostColl
)

func (pe *PE) newHostOp(kind hostKind) *hostOp {
	var o *hostOp
	if n := len(pe.freeOps); n > 0 {
		o, pe.freeOps = pe.freeOps[n-1], pe.freeOps[:n-1]
	} else {
		o = &hostOp{pe: pe}
		o.stepFn = o.step
	}
	o.kind = kind
	return o
}

func (o *hostOp) release() {
	pe, call := o.pe, o.call
	if call != nil {
		*call = hostCall{}
	}
	*o = hostOp{pe: pe, call: call, stepFn: o.stepFn, dropFn: o.dropFn, predFn: o.predFn}
	pe.freeOps = append(pe.freeOps, o)
}

// pred is the condition a signal wait or a quiet waits for.
func (o *hostOp) pred(v uint64) bool { return o.cmp.match(v, o.val) }

// waitOn enlists sp on c until pred holds.
func (o *hostOp) waitOn(sp *sim.Proc, c *sim.Counter) bool {
	if o.predFn == nil {
		o.predFn = o.pred
	}
	return c.Enlist(sp, o.predFn)
}

// step is the op's step machine on its stream process sp.
func (o *hostOp) step(sp *sim.Proc) sim.Duration {
	pe := o.pe
	if o.phase == 0 {
		o.phase = 1
		if o.launch > 0 {
			return o.launch
		}
	}
	if o.phase == 1 {
		o.phase = 2
		switch o.kind {
		case hostPut:
			t := pe.transfer(sp.Engine(), sp.Now(), o.dest.on(o.target).Slice(0, o.n), o.src, o.n,
				o.target, machine.APIHost, Block, o.sig, o.sigOp, o.sigVal)
			if !t.done.Enlist(sp) {
				return sim.StepEnlisted
			}
		case hostSignalWait:
			if !o.waitOn(sp, o.sig.counter(pe.rank)) {
				return sim.StepEnlisted
			}
		case hostQuiet:
			o.cmp, o.val = CmpGE, pe.issued.Value()
			if !o.waitOn(sp, pe.completed) {
				return sim.StepEnlisted
			}
		case hostColl:
			c := o.call
			c.walk, c.start = c.team.walk(machine.APIHost, c.key, c.coll), sp.Engine().SkipFreeNow()
		}
	}
	if o.kind == hostColl {
		if d := o.call.walk.Step(sp); d != sim.StepResume {
			return d
		}
		o.call.observe(sp.Engine().SkipFreeNow())
	}
	o.release()
	return sim.StepResume
}

// drop is the op torn down mid-way: a collective still observes the time it
// ran.
func (o *hostOp) drop() {
	if o.kind == hostColl && o.call.walk != nil {
		o.call.observe(o.pe.w.cluster.Eng.SkipFreeNow())
	}
}

func (c *hostCall) observe(now sim.Time) {
	c.team.pe.w.mColl[machine.APIHost][c.coll.kind].Observe(int64(now.Sub(c.start)))
}

// CollectiveLaunch launches a kernel that may use device-side collective
// operations (nvshmemx_collective_launch). All PEs must call it; the
// kernels start together once every PE's launch reaches the GPU, mirroring
// the grid-wide cooperative-launch requirement: the kernel waits for them in
// a body of its own, so it runs on the stream's coroutine whatever its kind.
func (pe *PE) CollectiveLaunch(p *sim.Proc, s *gpu.Stream, k *gpu.Kernel, args any) {
	pe.launchSeq++
	key := lockstep.Key{Seq: pe.launchSeq, Kind: "coll-launch"}
	inner := *k
	body, compute := inner.Body, inner.Compute
	inner.Compute = nil
	inner.Body = func(kc *gpu.KernelCtx) {
		pe.w.insts.Join(key, &pe.world.g, machine.APIDevice, gpu.View{}, gpu.View{}, nil).Run(kc.P)
		switch {
		case body != nil:
			body(kc)
		case compute != nil:
			compute()
		}
	}
	s.Launch(p, &inner, args)
}
