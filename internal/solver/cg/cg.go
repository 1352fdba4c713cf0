// Package cg implements the paper's distributed Conjugate Gradient
// experiment (§VI-D): rows of a sparse SPD matrix are split equally across
// GPUs; each iteration performs one SpMV — whose input vector is assembled
// with an AllGatherv across GPUs — plus two dot products, each requiring an
// AllReduce.
//
// As with the Jacobi solver, five implementation variants mirror the
// paper's Table II: native MPI, native GPUCCL, native GPUSHMEM host API,
// native GPUSHMEM device API, and the backend-agnostic UNICONN version.
package cg

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Variant aliases the solver package's; it stays only because the frozen
// benchmark/ names it (ROADMAP 19).
type Variant = solver.Variant

// Config describes one CG run.
type Config struct {
	Model *machine.Model
	NGPUs int
	// Matrix is the system. A modelled run reads only its row offsets, so a
	// phantom (sparse.SyntheticSPDSpec.Phantom) serves; Compute needs one
	// with entries.
	Matrix *sparse.CSR
	// Iters is the fixed iteration count (the paper runs 10K iterations
	// with no warm-up and reports total runtime).
	Iters int
	// Compute selects functional execution (verifiable numerics) versus
	// modeled-only timing.
	Compute bool
	// DisableAllgatherv skips the SpMV exchange, reproducing the paper's
	// §VI-D ablation that isolated MPI's Allgatherv as the bottleneck.
	DisableAllgatherv bool

	Variant solver.Variant
	// Backend and Mode configure the Uniconn variant (ignored otherwise),
	// which runs PureHost or PureDevice.
	Backend core.BackendID
	Mode    core.LaunchMode

	// Shards is ignored; it stays only until benchmark/ stops setting it (ROADMAP 19).
	Shards int

	// Trace, when non-nil, records the run's execution spans.
	Trace *trace.Log
	// Metrics, when non-nil, collects the run's counters (see
	// internal/metrics; one registry per run, never shared across cells).
	Metrics *metrics.Registry

	// full turns fast-forward off, for the tests that compare a
	// fast-forwarded run with the full one.
	full bool
}

// Result reports one run.
type Result struct {
	// Total is the timed-section duration; a figure per iteration is Total
	// over Iters.
	Total    sim.Duration
	residual float64 // final squared residual norm (functional runs)
	// End is the virtual time at which the whole run finished — the
	// profiler's attribution horizon.
	End sim.Time
}

// Run executes the configured variant.
func Run(cfg Config) (Result, error) {
	res, _, err := cfg.run()
	return res, err
}

// run is Run, and reports how many iterations rank 0 simulated (-1 when the
// run had no fast-forward controller: a functional run computes every one).
func (cfg Config) run() (Result, int, error) {
	switch {
	case cfg.Matrix == nil:
		return Result{}, -1, fmt.Errorf("cg: no Matrix")
	case cfg.Matrix.Rows < cfg.NGPUs:
		return Result{}, -1, fmt.Errorf("cg: Matrix.Rows %d: need at least one row per GPU (%d GPUs)", cfg.Matrix.Rows, cfg.NGPUs)
	}
	if cfg.Iters < 1 {
		return Result{}, -1, fmt.Errorf("cg: iters %d: need iters >= 1", cfg.Iters)
	}
	if cfg.Compute && cfg.Matrix.Phantom() {
		return Result{}, -1, fmt.Errorf("cg: the %d-row Matrix is a phantom (row counts, no entries): a functional run (Compute=true) needs Generate's", cfg.Matrix.Rows)
	}
	if cfg.DisableAllgatherv && cfg.Compute {
		return Result{}, -1, fmt.Errorf("cg: the no-allgatherv ablation is timing-only (set Compute=false)")
	}
	if cfg.Variant == solver.Uniconn && cfg.Mode == core.PartialDevice {
		return Result{}, -1, fmt.Errorf("cg: %v: the Uniconn CG runs PureHost or PureDevice", cfg.Mode)
	}
	perRank, total, end, simulated, err := solver.Launch("cg", cfg, cfg.Variant, core.Config{
		Model: cfg.Model, NGPUs: cfg.NGPUs, Backend: cfg.Backend, Trace: cfg.Trace, Metrics: cfg.Metrics,
	}, cfg.Mode, 0, cfg.Compute || cfg.full, &bodies)
	if err != nil {
		return Result{}, simulated, err
	}
	return Result{Total: total, residual: perRank[0].residual, End: end}, simulated, nil
}

// bodies is each variant's rank body, in solver.Variant order.
var bodies = solver.Bodies[Config, rankResult]{runNativeMPI, runNativeGPUCCL, runNativeShmemHost, runNativeShmemDevice, runUniconn}

type rankResult struct {
	elapsed  sim.Duration
	residual float64
}

// Elapsed is the rank's timed-section duration.
func (rr rankResult) Elapsed() sim.Duration { return rr.elapsed }

// state is the per-rank CG storage: the local matrix block, the
// distributed vectors, and the scalar staging buffers.
type state struct {
	cfg  Config
	rank int

	part   sparse.Partition
	lo, hi int
	myRows int
	nnz    int64

	x, r, p, ap *core.Mem[float64] // local blocks (myRows)
	pFull       *core.Mem[float64] // assembled SpMV input (Rows)
	dots        *core.Mem[float64] // [0]=pAp, [1]=rsnew scratch

	rsold float64

	// The host-API variants' kernels (newKernels), and the scalars bound for
	// the next axpy and update-p launches.
	spmv, dotPAp, dotRR, axpy, updateP *gpu.Kernel
	alphaArg, betaArg                  float64

	stream      *gpu.Stream
	start, stop *gpu.Event
}

func newState(cfg Config, env *core.Env) *state {
	n := cfg.Matrix.Rows
	part := sparse.PartitionRows(n, cfg.NGPUs)
	lo, hi := part.Range(env.WorldRank())
	st := &state{
		cfg: cfg, rank: env.WorldRank(),
		part: part, lo: lo, hi: hi, myRows: hi - lo,
		nnz:    cfg.Matrix.NNZRange(lo, hi),
		stream: env.NewStream("cg"),
		start:  gpu.NewEvent("start"), stop: gpu.NewEvent("stop"),
	}
	// Symmetric allocations must agree across ranks: local blocks use the
	// maximum block size.
	maxRows := 0
	for r := 0; r < cfg.NGPUs; r++ {
		if c := part.Count(r); c > maxRows {
			maxRows = c
		}
	}
	// A modelled run never touches a vector element, so its vectors are
	// phantom; dots holds the two scalars the host reads for control flow
	// and stays real.
	alloc := core.AllocPhantom[float64]
	if cfg.Compute {
		alloc = core.Alloc[float64]
	}
	st.x = alloc(env, maxRows)
	st.r = alloc(env, maxRows)
	st.p = alloc(env, maxRows)
	st.ap = alloc(env, maxRows)
	st.pFull = alloc(env, n)
	st.dots = core.Alloc[float64](env, 2)
	st.newKernels()

	if cfg.Compute {
		// b = A·1 so the exact solution is the ones vector; x0 = 0,
		// r0 = b, p0 = r0.
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		cfg.Matrix.SpMV(st.r.Data()[:st.myRows], ones, lo, hi)
		copy(st.p.Data()[:st.myRows], st.r.Data()[:st.myRows])
		for i := 0; i < st.myRows; i++ {
			st.rsold += st.r.Data()[i] * st.r.Data()[i]
		}
		// Global rsold: every rank computes the same full-vector value.
		full := make([]float64, n)
		cfg.Matrix.SpMV(full, ones, 0, n)
		st.rsold = 0
		for _, v := range full {
			st.rsold += v * v
		}
	}
	return st
}

// Kernel builders: durations come from the machine model; bodies execute
// the real arithmetic when cfg.Compute. None of them communicates, so each is
// a Compute kernel the stream runs in its own event slots, and each is built
// once per rank (newState): a launch allocates nothing.

// newKernels builds the host-API variants' five kernels. axpy and update-p
// apply the scalar the host bound last (axpyWith, updatePWith): the host
// synchronizes the stream before it computes the next one, so the kernel has
// run by then.
func (st *state) newKernels() {
	nnz := st.nnz
	st.spmv = &gpu.Kernel{
		Name:    "spmv",
		Time:    func(d *gpu.Device) sim.Duration { return d.Model().SpMVKernelTime(nnz) },
		Compute: st.spmvBody,
	}
	st.dotPAp = st.dotKernel(st.p, st.ap, 0)
	st.dotRR = st.dotKernel(st.r, st.r, 1)
	st.axpy = &gpu.Kernel{Name: "axpy", Time: st.vecTime(6), Compute: func() { st.axpyBody(st.alphaArg) }}
	st.updateP = &gpu.Kernel{Name: "update-p", Time: st.vecTime(3), Compute: func() { st.updatePBody(st.betaArg) }}
}

// spmvBody computes ap = A_local · pFull.
func (st *state) spmvBody() {
	if !st.cfg.Compute {
		return
	}
	st.cfg.Matrix.SpMV(st.ap.Data()[:st.myRows], st.pFull.Data(), st.lo, st.hi)
}

// vecTime is the modelled duration of streaming that many myRows-long
// vectors.
func (st *state) vecTime(streams int) func(d *gpu.Device) sim.Duration {
	bytes := int64(st.myRows) * 8 * int64(streams)
	return func(d *gpu.Device) sim.Duration { return d.Model().StencilKernelTime(bytes) }
}

// dotKernel computes dots[slot] = a·b over the local block.
func (st *state) dotKernel(a, b *core.Mem[float64], slot int) *gpu.Kernel {
	return &gpu.Kernel{Name: "dot", Time: st.vecTime(2), Compute: func() { st.dotBody(a, b, slot) }}
}

func (st *state) dotBody(a, b *core.Mem[float64], slot int) {
	if !st.cfg.Compute {
		return
	}
	sum := 0.0
	for i := 0; i < st.myRows; i++ {
		sum += a.Data()[i] * b.Data()[i]
	}
	st.dots.Data()[slot] = sum
}

// axpyWith binds alpha and returns the kernel performing x += alpha·p and
// r -= alpha·ap.
func (st *state) axpyWith(alpha float64) *gpu.Kernel {
	st.alphaArg = alpha
	return st.axpy
}

func (st *state) axpyBody(alpha float64) {
	if !st.cfg.Compute {
		return
	}
	for i := 0; i < st.myRows; i++ {
		st.x.Data()[i] += alpha * st.p.Data()[i]
		st.r.Data()[i] -= alpha * st.ap.Data()[i]
	}
}

// updatePWith binds beta and returns the kernel performing p = r + beta·p.
func (st *state) updatePWith(beta float64) *gpu.Kernel {
	st.betaArg = beta
	return st.updateP
}

func (st *state) updatePBody(beta float64) {
	if !st.cfg.Compute {
		return
	}
	for i := 0; i < st.myRows; i++ {
		st.p.Data()[i] = st.r.Data()[i] + beta*st.p.Data()[i]
	}
}

// scalarStep folds the host-side scalar logic: alpha from pAp, then after
// the second dot, beta. In modeled-only runs the values are inert.
func (st *state) alpha() float64 {
	if !st.cfg.Compute {
		return 1
	}
	pap := st.dots.Data()[0]
	if pap == 0 {
		return 0
	}
	return st.rsold / pap
}

func (st *state) betaAndRoll() float64 {
	if !st.cfg.Compute {
		return 0
	}
	rsnew := st.dots.Data()[1]
	beta := 0.0
	if st.rsold != 0 {
		beta = rsnew / st.rsold
	}
	st.rsold = rsnew
	return beta
}

// residual reports the final squared residual norm.
func (st *state) residual() float64 {
	if !st.cfg.Compute {
		return 0
	}
	if math.IsNaN(st.rsold) {
		panic("cg: NaN residual")
	}
	return st.rsold
}

// RunSerial executes the reference CG on one in-memory matrix and returns
// the squared residual after iters iterations.
func RunSerial(m *sparse.CSR, iters int) float64 {
	n := m.Rows
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, n)
	m.SpMV(b, ones, 0, n)
	x := make([]float64, n)
	r := append([]float64{}, b...)
	p := append([]float64{}, b...)
	ap := make([]float64, n)
	rsold := 0.0
	for _, v := range r {
		rsold += v * v
	}
	for it := 0; it < iters; it++ {
		m.SpMV(ap, p, 0, n)
		pap := 0.0
		for i := range p {
			pap += p[i] * ap[i]
		}
		alpha := 0.0
		if pap != 0 {
			alpha = rsold / pap
		}
		rsnew := 0.0
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			rsnew += r[i] * r[i]
		}
		beta := 0.0
		if rsold != 0 {
			beta = rsnew / rsold
		}
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rsold = rsnew
	}
	return rsold
}
