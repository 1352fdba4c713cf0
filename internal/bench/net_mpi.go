package bench

// Native GPU-aware MPI latency and bandwidth benchmarks (OSU style):
// blocking ping-pong for latency; windows of non-blocking sends closed by a
// zero-byte acknowledgement for one-way bandwidth.

import (
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func latencyNativeMPI(cfg NetConfig, env *core.Env, iters, warmup int) sim.Duration {
	comm := env.MPIComm()
	p := env.Proc()
	n := int(cfg.Bytes / 8)
	buf := cfg.payload().device(env, n)
	me, peer := env.WorldRank(), 1-env.WorldRank()

	var start sim.Time
	for it := range env.Loop(p, 0, warmup+iters) {
		if it == warmup {
			comm.Barrier(p)
			start = p.Now()
		}
		if me == 0 {
			comm.Send(p, buf.Whole(), peer, 1)
			comm.Recv(p, buf.Whole(), peer, 2)
		} else {
			comm.Recv(p, buf.Whole(), peer, 1)
			comm.Send(p, buf.Whole(), peer, 2)
		}
	}
	return p.Now().Sub(start)
}

func bandwidthNativeMPI(cfg NetConfig, env *core.Env, iters, warmup, window int) sim.Duration {
	comm := env.MPIComm()
	p := env.Proc()
	n := int(cfg.Bytes / 8)
	bufs := make([]*gpu.Buffer[float64], window)
	for i := range bufs {
		bufs[i] = cfg.payload().device(env, n)
	}
	me, peer := env.WorldRank(), 1-env.WorldRank()

	var start sim.Time
	for it := range env.Loop(p, 0, warmup+iters) {
		if it == warmup {
			comm.Barrier(p)
			start = p.Now()
		}
		reqs := make([]*mpi.Request, window)
		if me == 0 {
			for w := 0; w < window; w++ {
				reqs[w] = comm.Isend(p, bufs[w].Whole(), peer, 3)
			}
			mpi.WaitAll(p, reqs...)
			comm.Recv(p, gpu.View{}, peer, 4) // window acknowledgement
		} else {
			for w := 0; w < window; w++ {
				reqs[w] = comm.Irecv(p, bufs[w].Whole(), peer, 3)
			}
			mpi.WaitAll(p, reqs...)
			comm.Send(p, gpu.View{}, peer, 4)
		}
	}
	return p.Now().Sub(start)
}
