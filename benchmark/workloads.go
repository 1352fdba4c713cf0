package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/solver/cg"
	"repro/internal/solver/jacobi"
	"repro/internal/sparse"
)

// runSeconds is the run length the operation counts below were sized for
// (BENCHMARK.json's run_seconds). --seconds scales the counts in proportion;
// a run always executes a fixed operation count, never a fixed duration, so
// that counts and digests repeat exactly.
const runSeconds = 10

// workload is one named set of inputs. An operation is the unit that is
// attempted, timed, verified and counted: one simulation cell or one query.
type workload struct {
	name string
	why  string
	// ops is the timed operation count of a full run; smokeOps of -scale
	// smoke. Counts are multiples of opUnit: the smallest run of consecutive
	// operations that holds the workload's mix of work (an antithetic pair
	// of vector sizes, a pass over the sixteen variants, a cycle of the spec
	// grid), so that groups of whole units compare.
	ops, smokeOps, opUnit int
	// warmOps untimed operations end every set-up, so lazy initialisation
	// and heap growth are paid before timing starts.
	warmOps int
	// setupReps is how often an untraced run sets the workload up; setup_s
	// is the fastest. Cheap set-ups repeat more often, because a burst of
	// host noise is a larger share of them.
	setupReps int
	// spanEvery samples one operation in spanEvery for harness spans.
	spanEvery int
	setup     func(in inputs) (instance, error)
}

// inputs is everything a set-up may depend on. The simulator and the service
// see only what setup generates from it.
type inputs struct {
	seed    uint64
	n, warm int // timed operations 0..n-1, warm-up operations n..n+warm-1
	setups  int // set-ups per untraced run
	smoke   bool
}

// instance is one set-up of a workload. op runs operation i and returns the
// SHA-256 of its simulated result; the run digest is the SHA-256 over all
// timed operations' leaves in operation order. kind names the class of
// operation i: operations of one kind do the same work whatever the seed
// (the lower or the upper half of a size band, one application variant, one
// cell of the spec grid), and a unit holds one of each.
type instance interface {
	op(i int, t *opTrace) ([32]byte, error)
	kind(i int) int
	close()
}

// verifier is implemented by instances with a check that spans operations.
type verifier interface{ verify() error }

// layerReporter is implemented by instances that derive per-layer metrics
// from their own operations (given the per-operation host times).
type layerReporter interface {
	layer(lat []time.Duration, m map[string]float64)
}

func leafOf(vals ...int64) [32]byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return sha256.Sum256(b)
}

var workloads = []workload{
	{
		name: "coll-small-64r",
		why:  "Engine-bound: 64-rank recursive-doubling allreduce of 1-4 KiB, so sim handoffs and mpi eager matching do the work and payload copy does none.",
		ops:  480, smokeOps: 2, opUnit: 2, setupReps: 7, warmOps: 8, spanEvery: 1,
		setup: collSetup(collShape{ranks: 64, lo: 1 << 10, hi: 4 << 10, iters: 20}),
	},
	{
		name: "coll-large-64r",
		why:  "Payload-bound: the same cell at 0.75-1.25 MiB (hierarchical, rendezvous), so gpu clone/reduce, buf arena and allocation do the work and handoffs are few.",
		ops:  32, smokeOps: 2, opUnit: 2, setupReps: 7, warmOps: 1, spanEvery: 1,
		setup: collSetup(collShape{ranks: 64, lo: 768 << 10, hi: 1280 << 10, iters: 4}),
	},
	{
		name: "coll-ring-256r",
		why:  "Handoffs at scale: 256-rank forced ring on a dragonfly, 2(n-1) steps per rank, deeper event heap and UGAL routing; stands in for the 1024-rank ring point.",
		ops:  12, smokeOps: 2, opUnit: 2, setupReps: 3, warmOps: 1, spanEvery: 1,
		setup: collSetup(collShape{ranks: 256, lo: 64 << 10, hi: 96 << 10, iters: 1, halves: true,
			alg: mpi.AlgRing, topo: fabric.TopologyConfig{Kind: fabric.TopoDragonfly}}),
	},
	{
		name: "apps-backends",
		why:  "The paper's Figs 5/6: Jacobi and CG as Native vs Uniconn on all four backends, the only workload where core dispatch, gpuccl, gpushmem, gpu streams and solver do the work.",
		ops:  128, smokeOps: 16, opUnit: 16, setupReps: 5, warmOps: 4, spanEvery: 1,
		setup: appsSetup,
	},
	{
		name: "serve-warm",
		why:  "Reads: Zipf-ordered POST /query over 64 cached specs by a closed-loop client at the handler, so JSON decode, spec validate/hash and cache get do the work.",
		ops:  1200000, smokeOps: 2000, opUnit: 1, setupReps: 5, warmOps: 1000, spanEvery: 512,
		setup: serveWarmSetup,
	},
	{
		name: "serve-churn",
		why:  "Writes beside reads: every query is a never-seen spec against a 256-entry cache, so batching, 2-rank launch set-up, cost evaluation, critical path, encode and eviction do the work.",
		ops:  320, smokeOps: 4, opUnit: 32, setupReps: 7, warmOps: 8, spanEvery: 1,
		setup: serveChurnSetup,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// opsFor scales the operation count to a run length.
func (w *workload) opsFor(seconds float64, smoke bool) int {
	if smoke {
		return w.smokeOps
	}
	units := int(float64(w.ops/w.opUnit)*seconds/runSeconds + 0.5)
	if units < 1 {
		units = 1
	}
	return units * w.opUnit
}

// ---- coll-*: bench.ScaleAllreduce cells -----------------------------------

type collShape struct {
	ranks  int
	lo, hi int64 // vector size band, bytes
	iters  int
	alg    mpi.AllreduceAlg
	topo   fabric.TopologyConfig
	// halves makes the lower and the upper half of the band two kinds of
	// cell, for a shape whose cell time barely depends on the size within a
	// half (the ring cell: 6 % over the whole band), so that single cells
	// compare. Otherwise every cell is one kind and only whole antithetic
	// pairs compare (a coll-large-64r cell's time is proportional to its
	// size).
	halves bool
}

type collInst struct {
	cfgs []bench.ScaleConfig
	mid  int64 // the middle of the size band when its halves are kinds, else 0
}

func collSetup(s collShape) func(in inputs) (instance, error) {
	return func(in inputs) (instance, error) {
		ranks := s.ranks
		if in.smoke {
			ranks = 16
		}
		m := machine.Perlmutter()
		// Antithetic pairs: the seed draws one size per pair, stratified over
		// the lower half of the band, and the partner mirrors it into the
		// upper half, so every pair moves the same number of bytes. Warm-up
		// cells sit at the middle of the band whatever the seed.
		r := newRNG(in.seed, "coll/sizes")
		var sizes []float64
		for _, u := range r.stratified(in.n/2, float64(s.lo), float64(s.lo+s.hi)/2) {
			pair := [2]float64{u, float64(s.lo+s.hi) - u}
			first := r.intn(2)
			sizes = append(sizes, pair[first], pair[1-first])
		}
		for j := 0; j < in.warm; j++ {
			sizes = append(sizes, float64(s.lo+s.hi)/2)
		}
		inst := &collInst{}
		if s.halves {
			inst.mid = (s.lo + s.hi) / 2
		}
		for _, sz := range sizes {
			inst.cfgs = append(inst.cfgs, bench.ScaleConfig{
				Model: m, Topology: s.topo, Ranks: ranks, Bytes: int64(sz) &^ 7, Alg: s.alg,
				Iters: s.iters, Warmup: 1, Compute: true,
				// The serial engine, whatever UNICONN_SHARDS says.
				Shards: -1,
			})
		}
		return inst, nil
	}
}

func (c *collInst) op(i int, t *opTrace) ([32]byte, error) {
	h := t.begin("build inputs")
	cfg := c.cfgs[i]
	cfg.Metrics, cfg.Trace = t.registry(), t.simTrace()
	t.end(h)

	h = t.begin("bench.ScaleAllreduce")
	perIter, rep, err := bench.ScaleAllreduce(cfg)
	t.end(h)
	if err != nil {
		return [32]byte{}, err
	}

	h = t.begin("digest")
	leaf := leafOf(int64(perIter), int64(rep.End))
	t.end(h)
	return leaf, nil
}

func (c *collInst) kind(i int) int {
	if c.cfgs[i].Bytes < c.mid {
		return 1
	}
	return 0
}

func (c *collInst) close() {}

// ---- apps-backends: Jacobi and CG, Native vs Uniconn x four backends -------

// appVariant is one row of appVariants: the variant enum (jacobi's and cg's
// share their values), and the backend and launch mode of the Uniconn form.
type appVariant struct {
	variant int
	backend core.BackendID
	mode    core.LaunchMode
}

var appVariantCfg = []appVariant{
	{int(jacobi.NativeMPI), 0, 0}, {int(jacobi.Uniconn), core.MPIBackend, core.PureHost},
	{int(jacobi.NativeGPUCCL), 0, 0}, {int(jacobi.Uniconn), core.GpucclBackend, core.PureHost},
	{int(jacobi.NativeGPUSHMEMHost), 0, 0}, {int(jacobi.Uniconn), core.GpushmemBackend, core.PureHost},
	{int(jacobi.NativeGPUSHMEMDevice), 0, 0}, {int(jacobi.Uniconn), core.GpushmemBackend, core.PureDevice},
}

type appsInst struct {
	jac    jacobi.Config
	cg     cg.Config
	cells  []int    // operation -> cell id: app*8 + variant row
	jacPer [8]int64 // Jacobi per-iteration virtual ns by variant row
	smoke  bool
}

func appsSetup(in inputs) (instance, error) {
	m := machine.Perlmutter()
	a := &appsInst{
		smoke: in.smoke,
		jac:   jacobi.Config{Model: m, NGPUs: 64, NX: 4096, NY: 4096, Iters: 60, Warmup: 10},
		cg:    cg.Config{Model: m, NGPUs: 8, Iters: 100, Shards: -1},
	}
	scale := 0.01
	if in.smoke {
		a.jac.NGPUs, a.jac.NX, a.jac.NY, a.jac.Iters, a.jac.Warmup = 8, 256, 256, 4, 1
		a.cg.Iters, scale = 5, 0.002
	}
	a.cg.Matrix = sparse.Serena().Generate(scale)
	// A pass is the sixteen cells in seed-shuffled order. The warm-up cells
	// are the same whatever the seed: one per backend, both applications.
	r := newRNG(in.seed, "apps/order")
	for len(a.cells) < in.n {
		a.cells = append(a.cells, r.perm(16)...)
	}
	for j := 0; j < in.warm; j++ {
		a.cells = append(a.cells, []int{1, 7, 8 + 3, 8 + 5}[j%4])
	}
	return a, nil
}

func (a *appsInst) op(i int, t *opTrace) ([32]byte, error) {
	cell := a.cells[i]
	v := appVariantCfg[cell%8]

	// run returns the cell's timed virtual duration (Jacobi per iteration,
	// CG in total) and its virtual end time.
	h := t.begin("build inputs")
	var run func() (timed, end int64, err error)
	call := "jacobi.Run"
	if cell < 8 {
		cfg := a.jac
		cfg.Variant, cfg.Backend, cfg.Mode = jacobi.Variant(v.variant), v.backend, v.mode
		cfg.Metrics, cfg.Trace = t.registry(), t.simTrace()
		run = func() (int64, int64, error) {
			res, err := jacobi.Run(cfg)
			return int64(res.PerIter), int64(res.End), err
		}
	} else {
		call = "cg.Run"
		cfg := a.cg
		cfg.Variant, cfg.Backend, cfg.Mode = cg.Variant(v.variant), v.backend, v.mode
		cfg.Metrics, cfg.Trace = t.registry(), t.simTrace()
		run = func() (int64, int64, error) {
			res, err := cg.Run(cfg)
			return int64(res.Total), int64(res.End), err
		}
	}
	t.end(h)

	h = t.begin(call)
	timed, end, err := run()
	t.end(h)
	if err != nil {
		return [32]byte{}, err
	}

	h = t.begin("digest")
	if cell < 8 {
		a.jacPer[cell] = timed
	}
	leaf := leafOf(int64(cell), timed, end)
	t.end(h)
	return leaf, nil
}

func (a *appsInst) kind(i int) int { return a.cells[i] }

func (a *appsInst) close() {}

// gapPct is the paper's headline: mean |Uniconn - native| / native of the
// Jacobi per-iteration virtual time over the four backend pairs. Exact.
func (a *appsInst) gapPct() float64 {
	var sum float64
	for p := 0; p < 4; p++ {
		native, uni := float64(a.jacPer[2*p]), float64(a.jacPer[2*p+1])
		if native == 0 {
			return 0
		}
		d := uni - native
		if d < 0 {
			d = -d
		}
		sum += d / native
	}
	return sum / 4 * 100
}

// verify holds the full-size run to the paper's claim (a smoke-size grid is
// too small for it).
func (a *appsInst) verify() error {
	if g := a.gapPct(); g >= 1 && !a.smoke {
		return fmt.Errorf("uniconn gap %.3f %% is not below the paper's 1 %%", g)
	}
	return nil
}

func (a *appsInst) layer(lat []time.Duration, m map[string]float64) {
	m["apps.uniconn_gap_pct"] = a.gapPct()
	byCell := make([][]float64, 16)
	for i, d := range lat {
		byCell[a.cells[i]] = append(byCell[a.cells[i]], ms(d))
	}
	for cell, xs := range byCell {
		app := "jacobi"
		if cell >= 8 {
			app = "cg"
		}
		m["apps."+app+"_ms."+appVariants[cell%8]] = median(xs)
	}
}
