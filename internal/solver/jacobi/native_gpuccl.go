package jacobi

// Native GPUCCL Jacobi (the paper's Listing 2): the halo exchange is a
// group of ncclSend/ncclRecv operations fused into one kernel on the same
// stream as the compute kernel — no host synchronization in the loop.

import (
	"repro/internal/core"
)

func runNativeGPUCCL(cfg Config, env *core.Env) rankResult {
	st := newState(cfg, env)
	ccl := env.CCLComm()
	p := env.Proc()
	nx := st.g.nx

	body := func(int) {
		next := st.next()
		st.stream.Launch(p, st.computeKernel(), nil)
		ccl.GroupStart()
		if st.g.top != -1 {
			ccl.Send(p, st.stream, next.send.View(0, nx), st.g.top)
			ccl.Recv(p, st.stream, next.recv.View(0, nx), st.g.top)
		}
		if st.g.bot != -1 {
			ccl.Send(p, st.stream, next.send.View(nx, nx), st.g.bot)
			ccl.Recv(p, st.stream, next.recv.View(nx, nx), st.g.bot)
		}
		ccl.GroupEnd(p, st.stream)
		st.swap()
	}
	elapsed := st.timedLoop(func() { env.MPIComm().Barrier(p) }, body)
	return rankResult{elapsed: elapsed, checksum: st.checksum()}
}
