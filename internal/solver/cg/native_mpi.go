package cg

// Native GPU-aware MPI CG: host-blocking Allgatherv for the SpMV input and
// host-blocking Allreduce for the dot products, with explicit stream
// synchronization before every communication phase.

import (
	"repro/internal/core"
	"repro/internal/gpu"
)

func runNativeMPI(cfg Config, env *core.Env) rankResult {
	st := newState(cfg, env)
	comm := env.MPIComm()
	p := env.Proc()
	counts, displs := st.part.Counts(), st.part.Displs()

	st.start.Record(st.stream)
	for range env.Loop(p, 0, cfg.Iters) {
		// Assemble the SpMV input vector.
		st.stream.Synchronize(p)
		if !cfg.DisableAllgatherv {
			comm.Allgatherv(p, st.p.View(0, st.myRows), st.pFull.Whole(), counts, displs)
		}
		st.stream.Launch(p, st.spmv, nil)
		st.stream.Launch(p, st.dotPAp, nil)
		st.stream.Synchronize(p)
		comm.Allreduce(p, st.dots.View(0, 1), st.dots.View(0, 1), gpu.ReduceSum)
		alpha := st.alpha()
		st.stream.Launch(p, st.axpyWith(alpha), nil)
		st.stream.Launch(p, st.dotRR, nil)
		st.stream.Synchronize(p)
		comm.Allreduce(p, st.dots.View(1, 1), st.dots.View(1, 1), gpu.ReduceSum)
		beta := st.betaAndRoll()
		st.stream.Launch(p, st.updatePWith(beta), nil)
	}
	st.stop.Record(st.stream)
	st.stream.Synchronize(p)
	comm.Barrier(p)
	return rankResult{elapsed: gpu.Elapsed(st.start, st.stop), residual: st.residual()}
}
