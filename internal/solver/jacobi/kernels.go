package jacobi

import (
	"repro/internal/gpu"
	"repro/internal/sim"
)

// Kernel construction shared by the variants. Every sweep kernel has the
// same three functional phases — unpack halos, 5-point sweep, pack boundary
// rows — and the same cost model; the device-API variants additionally
// perform communication inside the kernel body.

// sweep executes the functional payload: cur.grid (halos refreshed from
// cur.recv) → next.grid, boundary rows staged into next.send.
func (st *state) sweep(cur, next bufset) {
	if !st.cfg.Compute {
		return
	}
	st.unpack(cur)
	st.sweepRows(cur, next, 1, st.g.chunk)
	st.pack(next)
}

// unpack refreshes cur.grid's halo rows from the previous exchange.
func (st *state) unpack(cur bufset) {
	if !st.cfg.Compute {
		return
	}
	nx, chunk := st.g.nx, st.g.chunk
	a := cur.grid.Data()
	if st.g.top != -1 {
		copy(a[0:nx], cur.recv.Data()[0:nx])
	}
	if st.g.bot != -1 {
		copy(a[(chunk+1)*nx:(chunk+2)*nx], cur.recv.Data()[nx:2*nx])
	}
}

// sweepRows applies the 5-point update to rows [lo, hi] of the chunk.
func (st *state) sweepRows(cur, next bufset, lo, hi int) {
	if !st.cfg.Compute {
		return
	}
	nx := st.g.nx
	a, anew := cur.grid.Data(), next.grid.Data()
	for r := lo; r <= hi; r++ {
		for c := 1; c < nx-1; c++ {
			anew[r*nx+c] = 0.25 * (a[(r-1)*nx+c] + a[(r+1)*nx+c] + a[r*nx+c-1] + a[r*nx+c+1])
		}
	}
}

// pack stages next.grid's fresh boundary rows into next.send.
func (st *state) pack(next bufset) {
	if !st.cfg.Compute {
		return
	}
	nx, chunk := st.g.nx, st.g.chunk
	anew := next.grid.Data()
	copy(next.send.Data()[0:nx], anew[nx:2*nx])
	copy(next.send.Data()[nx:2*nx], anew[chunk*nx:(chunk+1)*nx])
}

// rowBytes is the modeled traffic of sweeping rows rows.
func (st *state) rowBytes(rows int) int64 { return int64(rows) * int64(st.g.nx) * 8 }

// kernelTime is the modeled sweep duration (memory-bound stencil).
func (st *state) kernelTime() func(d *gpu.Device) sim.Duration {
	bytes := st.g.interiorBytes()
	return func(d *gpu.Device) sim.Duration {
		return d.Model().StencilKernelTime(bytes)
	}
}

// newSweeps builds the computation-only sweep of each buffer parity once
// (PureHost variants): it communicates nothing, so it is a Compute kernel the
// stream runs in its own event slots, and a launch allocates nothing.
func (st *state) newSweeps() {
	for k := range st.sweeps {
		cur, next := st.bufs[k], st.bufs[1-k]
		st.sweeps[k] = &gpu.Kernel{Name: "jacobi", Time: st.kernelTime(), Compute: func() { st.sweep(cur, next) }}
	}
}

// computeKernel is the sweep from the current buffers into the next.
func (st *state) computeKernel() *gpu.Kernel { return st.sweeps[st.curi] }

// timedLoop runs body for iterations 1..warmup+iters, synchronizing after
// the warmup (host and device, per §VI-A2) and timing the rest with events on
// the solver stream.
func (st *state) timedLoop(barrier func(), body func(iter int)) sim.Duration {
	cfg := st.cfg
	for it := range st.env.Loop(st.env.Proc(), 1, cfg.Warmup+cfg.Iters+1) {
		if it == cfg.Warmup+1 {
			barrier()
			st.env.StreamSynchronize(st.stream)
			st.start.Record(st.stream)
		}
		body(it)
	}
	st.stop.Record(st.stream)
	st.env.StreamSynchronize(st.stream)
	barrier()
	return gpu.Elapsed(st.start, st.stop)
}
