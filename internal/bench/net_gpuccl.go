package bench

// Native GPUCCL latency and bandwidth benchmarks: every operation is a
// stream-ordered communication kernel, so small-message latency carries the
// kernel-launch overhead (the paper's Fig. 2-4 behaviour); the bandwidth
// window is a single group, amortizing the launch.

import (
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/sim"
)

func latencyNativeCCL(cfg NetConfig, env *core.Env, iters, warmup int) sim.Duration {
	ccl := env.CCLComm()
	p := env.Proc()
	s := env.DefaultStream()
	n := int(cfg.Bytes / 8)
	buf := cfg.payload().device(env, n)
	me, peer := env.WorldRank(), 1-env.WorldRank()

	var start sim.Time
	for it := range env.Loop(p, 0, warmup+iters) {
		if it == warmup {
			s.Synchronize(p)
			env.MPIComm().Barrier(p)
			start = p.Now()
		}
		if me == 0 {
			ccl.Send(p, s, buf.Whole(), peer)
			ccl.Recv(p, s, buf.Whole(), peer)
		} else {
			ccl.Recv(p, s, buf.Whole(), peer)
			ccl.Send(p, s, buf.Whole(), peer)
		}
		s.Synchronize(p)
	}
	return p.Now().Sub(start)
}

func bandwidthNativeCCL(cfg NetConfig, env *core.Env, iters, warmup, window int) sim.Duration {
	ccl := env.CCLComm()
	p := env.Proc()
	s := env.DefaultStream()
	n := int(cfg.Bytes / 8)
	bufs := make([]*gpu.Buffer[float64], window)
	for i := range bufs {
		bufs[i] = cfg.payload().device(env, n)
	}
	me, peer := env.WorldRank(), 1-env.WorldRank()

	var start sim.Time
	for it := range env.Loop(p, 0, warmup+iters) {
		if it == warmup {
			s.Synchronize(p)
			env.MPIComm().Barrier(p)
			start = p.Now()
		}
		ccl.GroupStart()
		for w := 0; w < window; w++ {
			if me == 0 {
				ccl.Send(p, s, bufs[w].Whole(), peer)
			} else {
				ccl.Recv(p, s, bufs[w].Whole(), peer)
			}
		}
		ccl.GroupEnd(p, s)
		s.Synchronize(p)
	}
	return p.Now().Sub(start)
}
