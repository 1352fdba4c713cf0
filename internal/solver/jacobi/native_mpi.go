package jacobi

// Native GPU-aware MPI Jacobi (the paper's Listing 1): launch the compute
// kernel, synchronize the stream (MPI has no stream integration), then
// exchange halos with non-blocking sends/receives and a Waitall.

import (
	"repro/internal/core"
	"repro/internal/mpi"
)

// Halo-exchange tags: messages travelling toward rank-1 vs rank+1.
const (
	tagUp   = 11
	tagDown = 12
)

func runNativeMPI(cfg Config, env *core.Env) rankResult {
	st := newState(cfg, env)
	comm := env.MPIComm()
	p := env.Proc()
	nx := st.g.nx

	body := func(int) {
		next := st.next()
		st.stream.Launch(p, st.computeKernel(), nil)
		// MPI cannot see the stream: the host must drain it before
		// touching device buffers.
		st.stream.Synchronize(p)
		reqs := make([]*mpi.Request, 0, 4)
		if st.g.top != -1 {
			reqs = append(reqs,
				comm.Irecv(p, next.recv.View(0, nx), st.g.top, tagDown),
				comm.Isend(p, next.send.View(0, nx), st.g.top, tagUp))
		}
		if st.g.bot != -1 {
			reqs = append(reqs,
				comm.Irecv(p, next.recv.View(nx, nx), st.g.bot, tagUp),
				comm.Isend(p, next.send.View(nx, nx), st.g.bot, tagDown))
		}
		mpi.WaitAll(p, reqs...)
		st.swap()
	}
	elapsed := st.timedLoop(func() { comm.Barrier(p) }, body)
	return rankResult{elapsed: elapsed, checksum: st.checksum()}
}
