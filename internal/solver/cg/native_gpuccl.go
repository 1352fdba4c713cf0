package cg

// Native GPUCCL CG: the Allgatherv is composed from grouped ncclSend/
// ncclRecv (NCCL has no variable-size allgather), the dot reductions use
// ncclAllReduce; the host synchronizes the stream only to read the scalars.

import (
	"repro/internal/core"
	"repro/internal/gpu"
)

func runNativeGPUCCL(cfg Config, env *core.Env) rankResult {
	st := newState(cfg, env)
	ccl := env.CCLComm()
	p := env.Proc()
	counts, displs := st.part.Counts(), st.part.Displs()
	me, n := st.rank, cfg.NGPUs

	st.start.Record(st.stream)
	for range env.Loop(p, 0, cfg.Iters) {
		if !cfg.DisableAllgatherv {
			ccl.GroupStart()
			for r := 0; r < n; r++ {
				if r == me {
					continue
				}
				ccl.Send(p, st.stream, st.p.View(0, st.myRows), r)
				ccl.Recv(p, st.stream, st.pFull.View(displs[r], counts[r]), r)
			}
			ccl.GroupEnd(p, st.stream)
			st.stream.MemcpyAsync(p, st.pFull.View(displs[me], st.myRows), st.p.View(0, st.myRows), st.myRows)
		}
		st.stream.Launch(p, st.spmv, nil)
		st.stream.Launch(p, st.dotPAp, nil)
		ccl.AllReduce(p, st.stream, st.dots.View(0, 1), st.dots.View(0, 1), gpu.ReduceSum)
		st.stream.Synchronize(p)
		alpha := st.alpha()
		st.stream.Launch(p, st.axpyWith(alpha), nil)
		st.stream.Launch(p, st.dotRR, nil)
		ccl.AllReduce(p, st.stream, st.dots.View(1, 1), st.dots.View(1, 1), gpu.ReduceSum)
		st.stream.Synchronize(p)
		beta := st.betaAndRoll()
		st.stream.Launch(p, st.updatePWith(beta), nil)
	}
	st.stop.Record(st.stream)
	st.stream.Synchronize(p)
	env.MPIComm().Barrier(p)
	return rankResult{elapsed: gpu.Elapsed(st.start, st.stop), residual: st.residual()}
}
