package cg

// Native GPUSHMEM CG.
//
// Host API: on-stream emulated allgatherv (puts + barrier) and on-stream
// team allreduce.
//
// Device API: one collective-launched kernel per iteration performs the
// whole pipeline — allgatherv, SpMV, both dot products with device-side
// allreduce, and the vector updates — with the scalar recurrences computed
// redundantly on every PE (the CPU-free style of [37]).

import (
	"repro/internal/core"
	"repro/internal/gpu"
)

func runNativeShmemHost(cfg Config, env *core.Env) rankResult {
	st := newState(cfg, env)
	pe := env.ShmemPE()
	p := env.Proc()
	counts, displs := st.part.Counts(), st.part.Displs()

	st.start.Record(st.stream)
	for range env.Loop(p, 0, cfg.Iters) {
		if !cfg.DisableAllgatherv {
			pe.AllGathervOnStream(p, st.stream, st.p.View(0, st.myRows), st.pFull.Whole(), counts, displs)
		}
		st.stream.Launch(p, st.spmv, nil)
		st.stream.Launch(p, st.dotPAp, nil)
		pe.AllReduceOnStream(p, st.stream, st.dots.View(0, 1), st.dots.View(0, 1), gpu.ReduceSum)
		st.stream.Synchronize(p)
		alpha := st.alpha()
		st.stream.Launch(p, st.axpyWith(alpha), nil)
		st.stream.Launch(p, st.dotRR, nil)
		pe.AllReduceOnStream(p, st.stream, st.dots.View(1, 1), st.dots.View(1, 1), gpu.ReduceSum)
		st.stream.Synchronize(p)
		beta := st.betaAndRoll()
		st.stream.Launch(p, st.updatePWith(beta), nil)
	}
	st.stop.Record(st.stream)
	st.stream.Synchronize(p)
	env.MPIComm().Barrier(p)
	return rankResult{elapsed: gpu.Elapsed(st.start, st.stop), residual: st.residual()}
}

func runNativeShmemDevice(cfg Config, env *core.Env) rankResult {
	st := newState(cfg, env)
	pe := env.ShmemPE()
	p := env.Proc()
	counts, displs := st.part.Counts(), st.part.Displs()

	st.start.Record(st.stream)
	for range env.Loop(p, 0, cfg.Iters) {
		k := &gpu.Kernel{Name: "cg-dev", Body: func(kc *gpu.KernelCtx) {
			if !cfg.DisableAllgatherv {
				pe.DevAllGatherv(kc, st.p.View(0, st.myRows), st.pFull.Whole(), counts, displs)
			}
			kc.P.Advance(kc.Dev.Model().SpMVKernelTime(st.nnz))
			st.spmvBody()
			kc.P.Advance(st.vecTime(2)(kc.Dev))
			st.dotBody(st.p, st.ap, 0)
			pe.DevAllReduce(kc, st.dots.View(0, 1), st.dots.View(0, 1), gpu.ReduceSum)
			alpha := st.alpha()
			kc.P.Advance(st.vecTime(6)(kc.Dev))
			st.axpyBody(alpha)
			kc.P.Advance(st.vecTime(2)(kc.Dev))
			st.dotBody(st.r, st.r, 1)
			pe.DevAllReduce(kc, st.dots.View(1, 1), st.dots.View(1, 1), gpu.ReduceSum)
			beta := st.betaAndRoll()
			kc.P.Advance(st.vecTime(3)(kc.Dev))
			st.updatePBody(beta)
		}}
		pe.CollectiveLaunch(p, st.stream, k, nil)
	}
	st.stop.Record(st.stream)
	st.stream.Synchronize(p)
	env.MPIComm().Barrier(p)
	return rankResult{elapsed: gpu.Elapsed(st.start, st.stop), residual: st.residual()}
}
