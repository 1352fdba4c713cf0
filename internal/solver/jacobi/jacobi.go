// Package jacobi implements the paper's 2D Jacobi experiment (§VI-C): a
// 5-point star stencil on an NX×NY grid partitioned across GPUs along the
// y-axis, with per-iteration halo exchanges of the boundary rows.
//
// Five implementation variants are provided, mirroring the paper's Table II
// rows: native GPU-aware MPI, native GPUCCL (grouped send/recv, Listing 2),
// native GPUSHMEM host API, native GPUSHMEM device API (Listing 3), and the
// UNICONN version (Listing 4) which runs on any backend and launch mode
// without code changes.
package jacobi

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/trace"
)

// Variant selects one implementation. It and its constants alias the
// solver package's; they stay only because the frozen benchmark/ names them
// (ROADMAP 19).
type Variant = solver.Variant

// The implementation variants, as benchmark/ spells them.
const (
	NativeMPI            = solver.NativeMPI
	NativeGPUCCL         = solver.NativeGPUCCL
	NativeGPUSHMEMHost   = solver.NativeGPUSHMEMHost
	NativeGPUSHMEMDevice = solver.NativeGPUSHMEMDevice
	Uniconn              = solver.Uniconn
)

// Config describes one Jacobi run.
type Config struct {
	Model *machine.Model
	NGPUs int
	// NX is the row width; NY the global row count (the paper uses
	// 2^14 × 2^14).
	NX, NY int
	// Iters and Warmup are the timed and untimed iteration counts.
	Iters, Warmup int
	// Compute selects functional execution (real float32 arithmetic,
	// verifiable) versus modeled-only execution (virtual time only, for
	// paper-scale grids).
	Compute bool

	Variant solver.Variant
	// Backend and Mode configure the Uniconn variant (ignored otherwise).
	Backend core.BackendID
	Mode    core.LaunchMode

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
	// PerIter is the event-timed duration per timed iteration.
	PerIter sim.Duration
	// Total is the timed-section duration.
	Total sim.Duration
	// End is the virtual time at which the whole run (including warmup and
	// teardown) finished — the profiler's attribution horizon.
	End sim.Time
	// checksum sums the final interior values (functional runs only);
	// used by tests to compare variants and the serial reference.
	checksum float64
}

// rankGrid is the per-rank decomposition.
type rankGrid struct {
	nx, chunk int // interior rows owned by this rank
	top, bot  int // neighbour ranks (-1 if boundary)
}

func decompose(cfg Config, rank int) rankGrid {
	n := cfg.NGPUs
	lo := rank * cfg.NY / n
	hi := (rank + 1) * cfg.NY / n
	g := rankGrid{nx: cfg.NX, chunk: hi - lo, top: rank - 1, bot: rank + 1}
	if g.top < 0 {
		g.top = -1
	}
	if g.bot >= n {
		g.bot = -1
	}
	return g
}

// interiorBytes is the memory traffic of one stencil sweep over the chunk
// (one read + one write stream per point, float32).
func (g rankGrid) interiorBytes() int64 { return int64(g.chunk) * int64(g.nx) * 8 }

// Run executes the configured variant and returns its timing (and checksum
// for functional runs).
func Run(cfg Config) (Result, error) {
	res, _, err := cfg.run()
	return res, err
}

// run is Run, and reports how many iterations rank 0 simulated (-1 when the
// run had no fast-forward controller: a functional run computes every one).
func (cfg Config) run() (Result, int, error) {
	switch {
	case cfg.NX < 3:
		return Result{}, -1, fmt.Errorf("jacobi: NX %d: need a grid at least 3 wide", cfg.NX)
	case cfg.NY < cfg.NGPUs:
		return Result{}, -1, fmt.Errorf("jacobi: NY %d: need at least one row per GPU (%d GPUs)", cfg.NY, cfg.NGPUs)
	}
	if cfg.Iters < 1 || cfg.Warmup < 0 {
		return Result{}, -1, fmt.Errorf("jacobi: iters %d and warmup %d: need iters >= 1 and warmup >= 0", cfg.Iters, cfg.Warmup)
	}
	perRank, total, end, simulated, err := solver.Launch("jacobi", cfg, cfg.Variant, core.Config{
		Model: cfg.Model, NGPUs: cfg.NGPUs, Backend: cfg.Backend, Trace: cfg.Trace, Metrics: cfg.Metrics,
	}, cfg.Mode, cfg.Warmup, cfg.Compute || cfg.full, &bodies)
	if err != nil {
		return Result{}, simulated, err
	}
	res := Result{PerIter: total / sim.Duration(cfg.Iters), Total: total, End: end}
	for _, rr := range perRank {
		res.checksum += rr.checksum
	}
	return res, simulated, nil
}

// bodies is each variant's rank body, in solver.Variant order.
var bodies = solver.Bodies[Config, rankResult]{runNativeMPI, runNativeGPUCCL, runNativeShmemHost, runNativeShmemDevice, runUniconn}

type rankResult struct {
	elapsed  sim.Duration
	checksum float64
}

// Elapsed is the rank's timed-section duration.
func (rr rankResult) Elapsed() sim.Duration { return rr.elapsed }

// state is the per-rank solver storage shared by all variants: the two grid
// arrays with halo rows, and the staging buffers for boundary exchange.
//
// Layout: a and anew have (chunk+2)*nx elements; row 0 is the halo from the
// top neighbour, rows 1..chunk are interior, row chunk+1 is the halo from
// the bottom neighbour. sendBuf rows: [0,nx) = my top interior row,
// [nx,2nx) = my bottom interior row. recvBuf rows: [0,nx) = halo arriving
// from top, [nx,2nx) = halo arriving from bottom.
type state struct {
	cfg  Config
	g    rankGrid
	rank int

	// Double-buffered grid, each with its own exchange staging: the
	// kernel sweeping INTO bufs[k].grid packs the new boundary rows into
	// bufs[k].send, which the exchange delivers into the neighbours'
	// bufs[k].recv; the next sweep unpacks bufs[k].recv into the halo
	// rows before reading bufs[k].grid.
	bufs [2]bufset
	curi int
	// sweeps[k] sweeps bufs[k] into the other set (newSweeps).
	sweeps [2]*gpu.Kernel

	sync        *core.Mem[uint64]
	env         *core.Env
	stream      *gpu.Stream
	start, stop *gpu.Event
}

type bufset struct {
	grid *core.Mem[float32] // (chunk+2)*nx with halo rows 0 and chunk+1
	send *core.Mem[float32] // [0,nx) to top, [nx,2nx) to bottom
	recv *core.Mem[float32] // [0,nx) from top, [nx,2nx) from bottom
}

// newState allocates the solver storage through the UNICONN Memory
// construct (symmetric on GPUSHMEM, plain device memory elsewhere) and
// initializes the boundary conditions. A modelled run never reads or writes
// a grid value, so its grids and halo staging are phantom; the signal words
// are read by the waits of every run and stay real.
func newState(cfg Config, env *core.Env) *state {
	g := decompose(cfg, env.WorldRank())
	st := &state{
		cfg: cfg, g: g, rank: env.WorldRank(), env: env,
		stream: env.NewStream("jacobi"),
		start:  gpu.NewEvent("start"), stop: gpu.NewEvent("stop"),
	}
	rows := g.chunk + 2
	storage := gpu.Phantom
	if cfg.Compute {
		storage = gpu.Zeroed
	}
	for k := range st.bufs {
		st.bufs[k] = bufset{
			grid: core.AllocAs[float32](env, rows*g.nx, storage),
			send: core.AllocAs[float32](env, 2*g.nx, storage),
			recv: core.AllocAs[float32](env, 2*g.nx, storage),
		}
	}
	st.sync = core.Alloc[uint64](env, 4)
	st.newSweeps()
	if cfg.Compute {
		initGrid(st.bufs[0].grid.Data(), g, st.rank, cfg)
		initGrid(st.bufs[1].grid.Data(), g, st.rank, cfg)
	}
	return st
}

// initGrid applies Dirichlet boundaries to a freshly allocated (zero) grid:
// the global edges are held at 1.
func initGrid(a []float32, g rankGrid, rank int, cfg Config) {
	rows := g.chunk + 2
	for r := 0; r < rows; r++ {
		a[r*g.nx] = 1
		a[r*g.nx+g.nx-1] = 1
	}
	if g.top == -1 { // global top edge lives in halo row 0
		for c := 0; c < g.nx; c++ {
			a[c] = 1
		}
	}
	if g.bot == -1 {
		for c := 0; c < g.nx; c++ {
			a[(rows-1)*g.nx+c] = 1
		}
	}
}

// cur and next return the buffer sets of the current iteration: the sweep
// reads cur.grid and writes next.grid.
func (st *state) cur() bufset  { return st.bufs[st.curi] }
func (st *state) next() bufset { return st.bufs[1-st.curi] }

// swap flips the double buffers (std::swap in Listing 4).
func (st *state) swap() { st.curi = 1 - st.curi }

// checksum sums the interior of the final grid.
func (st *state) checksum() float64 {
	if !st.cfg.Compute {
		return 0
	}
	cur := st.cur().grid
	sum := 0.0
	for r := 1; r <= st.g.chunk; r++ {
		for c := 0; c < st.g.nx; c++ {
			sum += float64(cur.Data()[r*st.g.nx+c])
		}
	}
	if math.IsNaN(sum) {
		panic("jacobi: NaN checksum")
	}
	return sum
}

// RunSerial computes the reference solution on a single in-memory grid,
// returning the interior checksum; tests compare the distributed variants
// against it.
func RunSerial(nx, ny, iters int) float64 {
	rows := ny + 2
	a := make([]float32, rows*nx)
	anew := make([]float32, rows*nx)
	init := func(b []float32) {
		for r := 0; r < rows; r++ {
			b[r*nx] = 1
			b[r*nx+nx-1] = 1
		}
		for c := 0; c < nx; c++ {
			b[c] = 1
			b[(rows-1)*nx+c] = 1
		}
	}
	init(a)
	init(anew)
	for it := 0; it < iters; it++ {
		for r := 1; r <= ny; r++ {
			for c := 1; c < nx-1; c++ {
				anew[r*nx+c] = 0.25 * (a[(r-1)*nx+c] + a[(r+1)*nx+c] + a[r*nx+c-1] + a[r*nx+c+1])
			}
		}
		a, anew = anew, a
	}
	sum := 0.0
	for r := 1; r <= ny; r++ {
		for c := 0; c < nx; c++ {
			sum += float64(a[r*nx+c])
		}
	}
	return sum
}
