package jacobi

// Native GPUSHMEM Jacobi, host and device APIs.
//
// Host API: stream-ordered put-with-signal into the neighbour's halo
// staging, then a stream-ordered signal wait — no host synchronization.
//
// Device API (the paper's Listing 3): one kernel per iteration launched
// with nvshmemx_collective_launch; boundary blocks put their rows with
// put_signal_nbi at BLOCK granularity and a designated thread waits on the
// incoming signal, all inside the kernel.

import (
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/gpushmem"
)

// Signal slots: sigFromTop is set by the top neighbour when my halo row has
// landed; sigFromBot by the bottom neighbour.
const (
	sigFromTop = 0
	sigFromBot = 1
)

func runNativeShmemHost(cfg Config, env *core.Env) rankResult {
	st := newState(cfg, env)
	pe := env.ShmemPE()
	p := env.Proc()
	nx := st.g.nx

	body := func(iter int) {
		next := st.next()
		st.stream.Launch(p, st.computeKernel(), nil)
		val := uint64(iter)
		if st.g.top != -1 {
			// My top row becomes the top neighbour's from-bottom halo.
			pe.PutSignalOnStream(p, st.stream, next.recv.SymRef(nx, nx),
				next.send.View(0, nx), nx,
				core.SigRefOf(st.sync, sigFromBot), val, gpushmem.SignalSet, st.g.top)
		}
		if st.g.bot != -1 {
			pe.PutSignalOnStream(p, st.stream, next.recv.SymRef(0, nx),
				next.send.View(nx, nx), nx,
				core.SigRefOf(st.sync, sigFromTop), val, gpushmem.SignalSet, st.g.bot)
		}
		if st.g.top != -1 {
			pe.SignalWaitOnStream(p, st.stream, core.SigRefOf(st.sync, sigFromTop), gpushmem.CmpGE, val)
		}
		if st.g.bot != -1 {
			pe.SignalWaitOnStream(p, st.stream, core.SigRefOf(st.sync, sigFromBot), gpushmem.CmpGE, val)
		}
		st.swap()
	}
	elapsed := st.timedLoop(func() { env.MPIComm().Barrier(p) }, body)
	return rankResult{elapsed: elapsed, checksum: st.checksum()}
}

func runNativeShmemDevice(cfg Config, env *core.Env) rankResult {
	st := newState(cfg, env)
	pe := env.ShmemPE()
	p := env.Proc()
	nx := st.g.nx

	body := func(iter int) {
		cur, next := st.cur(), st.next()
		val := uint64(iter)
		k := &gpu.Kernel{Name: "jacobi-dev", Body: func(kc *gpu.KernelCtx) {
			// Compute first (interior + boundary blocks), then
			// communicate from the boundary blocks.
			kc.P.Advance(st.kernelTime()(kc.Dev))
			st.sweep(cur, next)
			if st.g.top != -1 {
				pe.DevPutSignalNBI(kc, gpushmem.Block, next.recv.SymRef(nx, nx),
					next.send.View(0, nx), nx,
					core.SigRefOf(st.sync, sigFromBot), val, gpushmem.SignalSet, st.g.top)
			}
			if st.g.bot != -1 {
				pe.DevPutSignalNBI(kc, gpushmem.Block, next.recv.SymRef(0, nx),
					next.send.View(nx, nx), nx,
					core.SigRefOf(st.sync, sigFromTop), val, gpushmem.SignalSet, st.g.bot)
			}
			if st.g.top != -1 {
				pe.DevSignalWaitUntil(kc, core.SigRefOf(st.sync, sigFromTop), gpushmem.CmpGE, val)
			}
			if st.g.bot != -1 {
				pe.DevSignalWaitUntil(kc, core.SigRefOf(st.sync, sigFromBot), gpushmem.CmpGE, val)
			}
		}}
		pe.CollectiveLaunch(p, st.stream, k, nil)
		st.swap()
	}
	elapsed := st.timedLoop(func() { env.MPIComm().Barrier(p) }, body)
	return rankResult{elapsed: elapsed, checksum: st.checksum()}
}
