package bench

// UNICONN latency and bandwidth benchmarks: one Post/Acknowledge
// implementation covering every backend (host API), and one DevPost/
// DevAcknowledge kernel for the device API — the portability the paper
// stresses in §VI-B.

import (
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/sim"
)

func latencyUniconnHost(cfg NetConfig, env *core.Env, iters, warmup int) sim.Duration {
	comm := core.NewCommunicator(env)
	s := env.NewStream("net")
	coord := core.NewCoordinator(env, core.PureHost, s)
	p := env.Proc()
	n := int(cfg.Bytes / 8)
	data := cfg.payload().uniconn(env, n)
	sync := core.Alloc[uint64](env, 2)
	me, peer := env.WorldRank(), 1-env.WorldRank()

	var start sim.Time
	for it := range env.Loop(p, 1, warmup+iters+1) {
		if it == warmup+1 {
			env.StreamSynchronize(s)
			comm.HostBarrier()
			start = p.Now()
		}
		v := uint64(it)
		if me == 0 {
			core.Post(coord, data.Base(), data.Base(), n, core.Sig(sync, 0), v, peer, comm)
			core.Acknowledge(coord, data.Base(), n, core.Sig(sync, 1), v, peer, comm)
		} else {
			core.Acknowledge(coord, data.Base(), n, core.Sig(sync, 0), v, peer, comm)
			core.Post(coord, data.Base(), data.Base(), n, core.Sig(sync, 1), v, peer, comm)
		}
		env.StreamSynchronize(s)
	}
	return p.Now().Sub(start)
}

func bandwidthUniconnHost(cfg NetConfig, env *core.Env, iters, warmup, window int) sim.Duration {
	comm := core.NewCommunicator(env)
	s := env.NewStream("net")
	coord := core.NewCoordinator(env, core.PureHost, s)
	p := env.Proc()
	n := int(cfg.Bytes / 8)
	data := cfg.payload().uniconn(env, n*window)
	sync := core.Alloc[uint64](env, 1)
	me, peer := env.WorldRank(), 1-env.WorldRank()

	var start sim.Time
	val := uint64(0)
	for it := range env.Loop(p, 0, warmup+iters) {
		if it == warmup {
			env.StreamSynchronize(s)
			comm.HostBarrier()
			start = p.Now()
		}
		coord.CommStart()
		for w := 0; w < window; w++ {
			val++
			if me == 0 {
				core.Post(coord, data.At(w*n), data.At(w*n), n, core.Sig(sync, 0), val, peer, comm)
			} else {
				core.Acknowledge(coord, data.At(w*n), n, core.Sig(sync, 0), val, peer, comm)
			}
		}
		coord.CommEnd()
		env.StreamSynchronize(s)
		comm.HostBarrier()
	}
	return p.Now().Sub(start)
}

func latencyUniconnDevice(cfg NetConfig, env *core.Env, iters, warmup int) sim.Duration {
	comm := core.NewCommunicator(env)
	s := env.NewStream("net")
	coord := core.NewCoordinator(env, core.PureDevice, s)
	dc := comm.ToDevice()
	n := int(cfg.Bytes / 8)
	data := cfg.payload().uniconn(env, n)
	sync := core.Alloc[uint64](env, 2)
	me, peer := env.WorldRank(), 1-env.WorldRank()

	var elapsed sim.Duration
	k := &gpu.Kernel{Name: "uniconn-pingpong", Body: func(kc *gpu.KernelCtx) {
		var start sim.Time
		for it := range env.Loop(kc.P, 1, warmup+iters+1) {
			if it == warmup+1 {
				core.DevBarrier(kc, dc)
				start = kc.P.Now()
			}
			v := uint64(it)
			if me == 0 {
				core.DevPost(kc, core.Block, data.Base(), data.Base(), n, core.Sig(sync, 0), v, peer, dc)
				core.DevAcknowledge(kc, core.Sig(sync, 1), v, dc)
			} else {
				core.DevAcknowledge(kc, core.Sig(sync, 0), v, dc)
				core.DevPost(kc, core.Block, data.Base(), data.Base(), n, core.Sig(sync, 1), v, peer, dc)
			}
		}
		elapsed = kc.P.Now().Sub(start)
	}}
	coord.BindKernel(core.PureDevice, k, nil)
	coord.LaunchKernel()
	env.StreamSynchronize(s)
	return elapsed
}

func bandwidthUniconnDevice(cfg NetConfig, env *core.Env, iters, warmup, window int) sim.Duration {
	comm := core.NewCommunicator(env)
	s := env.NewStream("net")
	coord := core.NewCoordinator(env, core.PureDevice, s)
	dc := comm.ToDevice()
	n := int(cfg.Bytes / 8)
	data := cfg.payload().uniconn(env, n*window)
	me, peer := env.WorldRank(), 1-env.WorldRank()

	var elapsed sim.Duration
	val := uint64(0)
	k := &gpu.Kernel{Name: "uniconn-bw", Body: func(kc *gpu.KernelCtx) {
		var start sim.Time
		for it := range env.Loop(kc.P, 0, warmup+iters) {
			if it == warmup {
				core.DevBarrier(kc, dc)
				start = kc.P.Now()
			}
			if me == 0 {
				for w := 0; w < window; w++ {
					val++
					core.DevPost(kc, core.Block, data.At(w*n), data.At(w*n), n,
						core.Signal{}, 0, peer, dc)
				}
				core.DevQuiet(kc, dc)
			}
			core.DevBarrier(kc, dc)
		}
		elapsed = kc.P.Now().Sub(start)
	}}
	coord.BindKernel(core.PureDevice, k, nil)
	coord.LaunchKernel()
	env.StreamSynchronize(s)
	return elapsed
}
