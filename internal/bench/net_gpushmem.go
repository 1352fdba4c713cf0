package bench

// Native GPUSHMEM latency and bandwidth benchmarks, host API (stream-
// ordered put-with-signal) and device API (the whole timed loop inside one
// collectively-launched kernel, as in the OSU NVSHMEM device benchmarks —
// which is why device-initiated latency has no per-iteration launch cost).

import (
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/gpushmem"
	"repro/internal/sim"
)

func latencyNativeShmemHost(cfg NetConfig, env *core.Env, iters, warmup int) sim.Duration {
	pe := env.ShmemPE()
	p := env.Proc()
	s := env.DefaultStream()
	n := int(cfg.Bytes / 8)
	data := cfg.payload().symmetric(pe, n)
	sig := gpushmem.Malloc[uint64](pe, 1)
	me, peer := env.WorldRank(), 1-env.WorldRank()

	var start sim.Time
	for it := range env.Loop(p, 1, warmup+iters+1) {
		if it == warmup+1 {
			s.Synchronize(p)
			env.MPIComm().Barrier(p)
			start = p.Now()
		}
		v := uint64(it)
		if me == 0 {
			pe.PutSignalOnStream(p, s, data.WholeRef(), data.Local(me).Whole(), n,
				sig.SigRef(0), v, gpushmem.SignalSet, peer)
			pe.SignalWaitOnStream(p, s, sig.SigRef(0), gpushmem.CmpGE, v)
		} else {
			pe.SignalWaitOnStream(p, s, sig.SigRef(0), gpushmem.CmpGE, v)
			pe.PutSignalOnStream(p, s, data.WholeRef(), data.Local(me).Whole(), n,
				sig.SigRef(0), v, gpushmem.SignalSet, peer)
		}
		s.Synchronize(p)
	}
	return p.Now().Sub(start)
}

func bandwidthNativeShmemHost(cfg NetConfig, env *core.Env, iters, warmup, window int) sim.Duration {
	pe := env.ShmemPE()
	p := env.Proc()
	s := env.DefaultStream()
	n := int(cfg.Bytes / 8)
	data := cfg.payload().symmetric(pe, n*window)
	me, peer := env.WorldRank(), 1-env.WorldRank()

	var start sim.Time
	for it := range env.Loop(p, 0, warmup+iters) {
		if it == warmup {
			s.Synchronize(p)
			env.MPIComm().Barrier(p)
			start = p.Now()
		}
		if me == 0 {
			for w := 0; w < window; w++ {
				pe.PutOnStream(p, s, data.Ref(w*n, n), data.Local(me).View(w*n, n), n, peer)
			}
			pe.QuietOnStream(p, s)
		}
		s.Synchronize(p)
		env.MPIComm().Barrier(p)
	}
	return p.Now().Sub(start)
}

func latencyNativeShmemDevice(cfg NetConfig, env *core.Env, iters, warmup int) sim.Duration {
	pe := env.ShmemPE()
	p := env.Proc()
	s := env.DefaultStream()
	n := int(cfg.Bytes / 8)
	data := cfg.payload().symmetric(pe, n)
	sig := gpushmem.Malloc[uint64](pe, 1)
	me, peer := env.WorldRank(), 1-env.WorldRank()

	var elapsed sim.Duration
	k := &gpu.Kernel{Name: "pingpong", Body: func(kc *gpu.KernelCtx) {
		var start sim.Time
		for it := range env.Loop(kc.P, 1, warmup+iters+1) {
			if it == warmup+1 {
				pe.DevBarrierAll(kc)
				start = kc.P.Now()
			}
			v := uint64(it)
			if me == 0 {
				pe.DevPutSignalNBI(kc, gpushmem.Block, data.WholeRef(),
					data.Local(me).Whole(), n, sig.SigRef(0), v, gpushmem.SignalSet, peer)
				pe.DevSignalWaitUntil(kc, sig.SigRef(0), gpushmem.CmpGE, v)
			} else {
				pe.DevSignalWaitUntil(kc, sig.SigRef(0), gpushmem.CmpGE, v)
				pe.DevPutSignalNBI(kc, gpushmem.Block, data.WholeRef(),
					data.Local(me).Whole(), n, sig.SigRef(0), v, gpushmem.SignalSet, peer)
			}
		}
		elapsed = kc.P.Now().Sub(start)
	}}
	pe.CollectiveLaunch(p, s, k, nil)
	s.Synchronize(p)
	return elapsed
}

func bandwidthNativeShmemDevice(cfg NetConfig, env *core.Env, iters, warmup, window int) sim.Duration {
	pe := env.ShmemPE()
	p := env.Proc()
	s := env.DefaultStream()
	n := int(cfg.Bytes / 8)
	data := cfg.payload().symmetric(pe, n*window)
	me, peer := env.WorldRank(), 1-env.WorldRank()

	var elapsed sim.Duration
	k := &gpu.Kernel{Name: "bw", Body: func(kc *gpu.KernelCtx) {
		var start sim.Time
		for it := range env.Loop(kc.P, 0, warmup+iters) {
			if it == warmup {
				pe.DevBarrierAll(kc)
				start = kc.P.Now()
			}
			if me == 0 {
				for w := 0; w < window; w++ {
					pe.DevPutNBI(kc, gpushmem.Block, data.Ref(w*n, n),
						data.Local(me).View(w*n, n), n, peer)
				}
				pe.DevQuiet(kc)
			}
			pe.DevBarrierAll(kc)
		}
		elapsed = kc.P.Now().Sub(start)
	}}
	pe.CollectiveLaunch(p, s, k, nil)
	s.Synchronize(p)
	return elapsed
}
