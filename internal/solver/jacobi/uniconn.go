package jacobi

// UNICONN Jacobi (the paper's Listing 4): one implementation that runs on
// every backend (MPI, GPUCCL, GPUSHMEM) and every launch mode (PureHost,
// PartialDevice, PureDevice) by switching the Coordinator's configuration —
// the application code is otherwise identical.

import (
	"repro/internal/core"
	"repro/internal/gpu"
)

func runUniconn(cfg Config, env *core.Env) rankResult {
	env.SetDevice(env.NodeRank())
	comm := core.NewCommunicator(env)
	st := newState(cfg, env)
	coord := core.NewCoordinator(env, cfg.Mode, st.stream)
	nx := st.g.nx

	var dc *core.DeviceComm
	if cfg.Mode != core.PureHost {
		dc = comm.ToDevice()
	}

	body := func(iter int) {
		cur, next := st.cur(), st.next()
		val := uint64(iter)

		// Bind the kernel matching the active launch mode. Only the bound
		// kernel for the coordinator's mode is launched; the others mirror
		// the paper's side-by-side BindKernel calls (Listing 4, 20-27).
		coord.BindKernel(core.PureHost, st.computeKernel(), nil)
		coord.BindKernel(core.PartialDevice, st.partialDeviceKernel(cur, next, dc), nil)
		coord.BindKernel(core.PureDevice, st.pureDeviceKernel(cur, next, val, dc), nil)
		coord.LaunchKernel()

		if cfg.Mode != core.PureDevice {
			coord.CommStart()
			if st.g.top != -1 {
				core.Post(coord, st.sendTop(next), st.recvRemoteFromBot(next), nx,
					core.Sig(st.sync, sigFromBot), val, st.g.top, comm)
			}
			if st.g.bot != -1 {
				core.Post(coord, st.sendBot(next), st.recvRemoteFromTop(next), nx,
					core.Sig(st.sync, sigFromTop), val, st.g.bot, comm)
			}
			if st.g.top != -1 {
				core.Acknowledge(coord, st.recvFromTop(next), nx,
					core.Sig(st.sync, sigFromTop), val, st.g.top, comm)
			}
			if st.g.bot != -1 {
				core.Acknowledge(coord, st.recvFromBot(next), nx,
					core.Sig(st.sync, sigFromBot), val, st.g.bot, comm)
			}
			coord.CommEnd()
		}
		st.swap()
	}
	elapsed := st.timedLoop(func() {
		comm.Barrier(st.stream)
	}, body)
	return rankResult{elapsed: elapsed, checksum: st.checksum()}
}

// Pointer helpers naming the four exchange endpoints (A_buf, A_buf+nx,
// Anew_buf, Anew_buf+nx in Listing 4).
func (st *state) sendTop(b bufset) core.Ptr[float32] { return b.send.At(0) }
func (st *state) sendBot(b bufset) core.Ptr[float32] { return b.send.At(st.g.nx) }

// recvFromTop/Bot are this rank's halo staging slots.
func (st *state) recvFromTop(b bufset) core.Ptr[float32] { return b.recv.At(0) }
func (st *state) recvFromBot(b bufset) core.Ptr[float32] { return b.recv.At(st.g.nx) }

// recvRemoteFromBot/Top name the peer-side destination of a Post: sending
// to the top neighbour lands in its from-bottom slot and vice versa
// (symmetric addressing resolves the peer instance).
func (st *state) recvRemoteFromBot(b bufset) core.Ptr[float32] { return b.recv.At(st.g.nx) }
func (st *state) recvRemoteFromTop(b bufset) core.Ptr[float32] { return b.recv.At(0) }

// partialDeviceKernel computes the boundary rows first, sends their
// payloads from inside the kernel without signals (Listing 6), and only
// then sweeps the interior — so the halo transfers overlap the bulk of the
// computation, which is the point of the PartialDevice middle ground
// (§IV-E1: "partition messages into smaller chunks aligned with the GPU
// kernel's computation pattern and send them asynchronously"). The
// host-side Post/Acknowledge pair completes and synchronizes the transfers.
func (st *state) partialDeviceKernel(cur, next bufset, dc *core.DeviceComm) *gpu.Kernel {
	nx, chunk := st.g.nx, st.g.chunk
	return &gpu.Kernel{Name: "jacobi-pdev", Body: func(kc *gpu.KernelCtx) {
		st.unpack(cur)
		if chunk <= 2 {
			kc.P.Advance(st.kernelTime()(kc.Dev))
			st.sweepRows(cur, next, 1, chunk)
			st.pack(next)
		} else {
			// Boundary rows first…
			kc.P.Advance(kc.Dev.Model().StencilKernelTime(st.rowBytes(2)))
			st.sweepRows(cur, next, 1, 1)
			st.sweepRows(cur, next, chunk, chunk)
			st.pack(next)
		}
		// …send while the interior computes.
		if st.g.top != -1 {
			core.DevPost(kc, core.Block, st.sendTop(next), st.recvRemoteFromBot(next), nx,
				core.Signal{}, 0, st.g.top, dc)
		}
		if st.g.bot != -1 {
			core.DevPost(kc, core.Block, st.sendBot(next), st.recvRemoteFromTop(next), nx,
				core.Signal{}, 0, st.g.bot, dc)
		}
		if chunk > 2 {
			kc.P.Advance(kc.Dev.Model().StencilKernelTime(st.rowBytes(chunk - 2)))
			st.sweepRows(cur, next, 2, chunk-1)
		}
	}}
}

// pureDeviceKernel computes, posts with signals, and waits, all inside the
// kernel (Listing 5).
func (st *state) pureDeviceKernel(cur, next bufset, val uint64, dc *core.DeviceComm) *gpu.Kernel {
	nx := st.g.nx
	return &gpu.Kernel{Name: "jacobi-fdev", Body: func(kc *gpu.KernelCtx) {
		kc.P.Advance(st.kernelTime()(kc.Dev))
		st.sweep(cur, next)
		if st.g.top != -1 {
			core.DevPost(kc, core.Block, st.sendTop(next), st.recvRemoteFromBot(next), nx,
				core.Sig(st.sync, sigFromBot), val, st.g.top, dc)
		}
		if st.g.bot != -1 {
			core.DevPost(kc, core.Block, st.sendBot(next), st.recvRemoteFromTop(next), nx,
				core.Sig(st.sync, sigFromTop), val, st.g.bot, dc)
		}
		if st.g.top != -1 {
			core.DevAcknowledge(kc, core.Sig(st.sync, sigFromTop), val, dc)
		}
		if st.g.bot != -1 {
			core.DevAcknowledge(kc, core.Sig(st.sync, sigFromBot), val, dc)
		}
	}}
}
