package cg

// UNICONN CG: a single implementation whose communication goes through the
// Coordinator — AllGatherv for the SpMV exchange, AllReduce for the dots —
// and which runs unchanged on MPI, GPUCCL, and GPUSHMEM, in PureHost or
// PureDevice mode.

import (
	"repro/internal/core"
	"repro/internal/gpu"
)

func runUniconn(cfg Config, env *core.Env) rankResult {
	env.SetDevice(env.NodeRank())
	comm := core.NewCommunicator(env)
	st := newState(cfg, env)
	coord := core.NewCoordinator(env, cfg.Mode, st.stream)
	counts, displs := st.part.Counts(), st.part.Displs()
	p := env.Proc()

	if cfg.Mode == core.PureDevice {
		return runUniconnDevice(cfg, env, st, coord, comm, counts, displs)
	}

	st.start.Record(st.stream)
	for range env.Loop(p, 0, cfg.Iters) {
		if !cfg.DisableAllgatherv {
			core.AllGatherv(coord, st.p.Base(), st.pFull.Base(), counts, displs, comm)
		}
		st.stream.Launch(p, st.spmv, nil)
		st.stream.Launch(p, st.dotPAp, nil)
		core.AllReduceInPlace(coord, gpu.ReduceSum, st.dots.Base(), 1, comm)
		env.StreamSynchronize(st.stream)
		alpha := st.alpha()
		st.stream.Launch(p, st.axpyWith(alpha), nil)
		st.stream.Launch(p, st.dotRR, nil)
		core.AllReduceInPlace(coord, gpu.ReduceSum, st.dots.At(1), 1, comm)
		env.StreamSynchronize(st.stream)
		beta := st.betaAndRoll()
		st.stream.Launch(p, st.updatePWith(beta), nil)
	}
	st.stop.Record(st.stream)
	env.StreamSynchronize(st.stream)
	comm.HostBarrier()
	return rankResult{elapsed: gpu.Elapsed(st.start, st.stop), residual: st.residual()}
}

// runUniconnDevice is the PureDevice flavour: the iteration body is one
// collective-launched kernel using the device-side collectives.
func runUniconnDevice(cfg Config, env *core.Env, st *state, coord *core.Coordinator,
	comm *core.Communicator, counts, displs []int) rankResult {

	dc := comm.ToDevice()
	st.start.Record(st.stream)
	for range env.Loop(env.Proc(), 0, cfg.Iters) {
		k := &gpu.Kernel{Name: "cg-uniconn-dev", Body: func(kc *gpu.KernelCtx) {
			if !cfg.DisableAllgatherv {
				core.DevAllGatherv(kc, st.p.Base(), st.pFull.Base(), counts, displs, dc)
			}
			kc.P.Advance(kc.Dev.Model().SpMVKernelTime(st.nnz))
			st.spmvBody()
			kc.P.Advance(st.vecTime(2)(kc.Dev))
			st.dotBody(st.p, st.ap, 0)
			core.DevAllReduce(kc, gpu.ReduceSum, st.dots.Base(), st.dots.Base(), 1, dc)
			alpha := st.alpha()
			kc.P.Advance(st.vecTime(6)(kc.Dev))
			st.axpyBody(alpha)
			kc.P.Advance(st.vecTime(2)(kc.Dev))
			st.dotBody(st.r, st.r, 1)
			core.DevAllReduce(kc, gpu.ReduceSum, st.dots.At(1), st.dots.At(1), 1, dc)
			beta := st.betaAndRoll()
			kc.P.Advance(st.vecTime(3)(kc.Dev))
			st.updatePBody(beta)
		}}
		coord.BindKernel(core.PureDevice, k, nil)
		coord.LaunchKernel()
	}
	st.stop.Record(st.stream)
	env.StreamSynchronize(st.stream)
	comm.HostBarrier()
	return rankResult{elapsed: gpu.Elapsed(st.start, st.stop), residual: st.residual()}
}
