package jacobi_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/solver/jacobi"
	"repro/internal/spec"
	"repro/internal/trace"
)

var machines = []*machine.Model{machine.Perlmutter(), machine.LUMI(), machine.MareNostrum5()}

// column is base configured as the column v runs it: the implementation
// and launch mode its spec names, as the harness's runSpec configures them.
func column(base jacobi.Config, v bench.Variant) jacobi.Config {
	base.Backend = v.Backend
	base.Variant, base.Mode = v.Spec(spec.Spec{}).Implementation()
	return base
}

// ffCompare runs cfg fast-forwarded and in full, each with a fresh metrics
// registry, and returns how many iterations rank 0 simulated fast-forwarded
// and the first difference between the two runs' Results, sorted spans, span
// analyses and metrics snapshots, "" when there is none.
func ffCompare(cfg jacobi.Config) (int, string, error) {
	fastLog, fullLog := trace.New(), trace.New()
	fastReg, fullReg := metrics.New(), metrics.New()
	cfg.Trace, cfg.Metrics = fastLog, fastReg
	fast, simulated, err := jacobi.RunFastForward(cfg, false)
	if err != nil {
		return 0, "", err
	}
	cfg.Trace, cfg.Metrics = fullLog, fullReg
	full, _, err := jacobi.RunFastForward(cfg, true)
	if err != nil {
		return 0, "", err
	}
	if fast != full {
		return simulated, fmt.Sprintf("fast %+v, full %+v", fast, full), nil
	}
	fs, gs := slices.Collect(fastLog.Sorted().Spans()), slices.Collect(fullLog.Sorted().Spans())
	if len(fs) != len(gs) {
		return simulated, fmt.Sprintf("%d spans fast, %d full", len(fs), len(gs)), nil
	}
	for i := range fs {
		if fs[i] != gs[i] {
			return simulated, fmt.Sprintf("span %d: fast %+v, full %+v", i, fs[i], gs[i]), nil
		}
	}
	if a, b := spanAnalyses(fastLog, fast.End), spanAnalyses(fullLog, full.End); a != b {
		return simulated, fmt.Sprintf("span analyses\nfast %s\nfull %s", a, b), nil
	}
	var a, b strings.Builder
	if err := errors.Join(fastReg.Snapshot().WriteJSON(&a), fullReg.Snapshot().WriteJSON(&b)); err != nil {
		return simulated, "", err
	}
	if a.String() != b.String() {
		return simulated, fmt.Sprintf("metrics\nfast %s\nfull %s", a.String(), b.String()), nil
	}
	return simulated, "", nil
}

// spanAnalyses renders every analysis of a span log: the critical path with
// its class breakdown, length and ends, the attribution up to end, the
// traffic totals, the comm matrix and the summary. A fast-forwarded run's
// log folds its skipped periods; a full run's stores every span.
func spanAnalyses(log *trace.Log, end sim.Time) string {
	v := log.Sorted()
	ranks, bytes, msgs := v.Traffic()
	return fmt.Sprintf("%s%s%d ranks, %d B in %d messages\n%s%s", trace.CriticalPath(v).Render(),
		trace.RenderBreakdown(trace.Attribute(v, end)), ranks, bytes, msgs, trace.BuildCommMatrix(v).Render(), v.Summarize().Render())
}

// TestSolverFastForwardEqualsFull holds every Fig 5 column on every machine,
// at the apps-backends shape (64 GPUs, 4096², 60 timed + 10 warm-up
// iterations) and at an odd one, to its full run: equal Result, equal sorted
// spans, equal metrics. In the apps-backends cells (Perlmutter) the two MPI columns, whose
// host waits for every halo, simulate at most 40 % of their iterations (on
// LUMI their transient outlasts 70 iterations); every other column's host
// runs ahead of its device, its loop never repeats, and it simulates all of
// them.
func TestSolverFastForwardEqualsFull(t *testing.T) {
	type cell struct {
		cfg        jacobi.Config
		label      string
		mpi, paper bool
	}
	var cells []cell
	for _, m := range machines {
		cols := bench.Variants(bench.Libs(m, false))
		for _, shape := range []struct {
			cfg   jacobi.Config
			paper bool
		}{
			{jacobi.Config{Model: m, NGPUs: 64, NX: 4096, NY: 4096, Iters: 60, Warmup: 10}, true},
			{jacobi.Config{Model: m, NGPUs: 13, NX: 300, NY: 13 * 61, Iters: 41, Warmup: 3}, false},
		} {
			if shape.paper && raceEnabled && m.Name != "Perlmutter" {
				continue // the race detector's tenfold cost: the apps-backends cells only
			}
			for _, v := range cols {
				label := fmt.Sprintf("%s/%d GPUs/%s%s", m.Name, shape.cfg.NGPUs, v.CLI, v.Impl())
				mpi := v.Backend == core.MPIBackend
				cells = append(cells, cell{column(shape.cfg, v), label, mpi, shape.paper && m.Name == "Perlmutter"})
			}
		}
	}
	for _, c := range cells {
		t.Run(c.label, func(t *testing.T) {
			t.Parallel()
			simulated, d, err := ffCompare(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			total := c.cfg.Iters + c.cfg.Warmup
			t.Logf("rank 0 simulated %d of %d iterations (%.0f %%)", simulated, total, 100*float64(simulated)/float64(total))
			switch {
			case d != "":
				t.Error(d)
			case c.mpi && c.paper && simulated*10 > total*4:
				t.Errorf("rank 0 simulated %d of %d iterations, want at most 40 %%", simulated, total)
			case !c.mpi && simulated != total:
				t.Errorf("rank 0 simulated %d of %d iterations of a loop that runs ahead", simulated, total)
			}
		})
	}
}

// TestSolverFastForwardEligibility: a run whose answer depends on more than
// lengths and shifted time computes every iteration — functional payloads
// (a skipped sweep computes nothing) run without a controller, and on a
// switched topology the fabric refuses every loop head — while an eligible
// run does not, with or without a metrics registry.
func TestSolverFastForwardEligibility(t *testing.T) {
	base := jacobi.Config{Model: machine.Perlmutter(), NGPUs: 4, NX: 64, NY: 64, Iters: 40, Warmup: 2}
	total := base.Iters + base.Warmup
	fatTree := *base.Model
	fatTree.Topology = fabric.TopologyConfig{Kind: fabric.TopoFatTree}
	for name, c := range map[string]struct {
		set      func(*jacobi.Config)
		min, max int // the iterations rank 0 may simulate
	}{
		"compute":  {func(c *jacobi.Config) { c.Compute = true }, -1, -1},
		"topology": {func(c *jacobi.Config) { c.Model = &fatTree }, total, total},
		"metrics":  {func(c *jacobi.Config) { c.Metrics = metrics.New() }, 0, base.Iters - 1},
		"eligible": {func(*jacobi.Config) {}, 0, base.Iters - 1},
	} {
		cfg := base
		c.set(&cfg)
		if _, simulated, err := jacobi.RunFastForward(cfg, false); err != nil || simulated < c.min || simulated > c.max {
			t.Errorf("%s: rank 0 simulated %d of %d iterations, err %v; want %d to %d (-1: no controller)",
				name, simulated, total, err, c.min, c.max)
		}
	}
}

// FuzzSolverFastForward draws a Jacobi cell — machine, column (the partial-
// device one included), 2 to 16 GPUs, grid width and height, and small
// iteration and warm-up counts — and holds its fast-forwarded run to its full
// run: equal Result, equal sorted spans, equal metrics.
func FuzzSolverFastForward(f *testing.F) {
	for i := range 16 {
		f.Add(uint64(i) * 0x9E3779B97F4A7C15)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rand.New(rand.NewPCG(seed, 0))
		m := machines[r.IntN(len(machines))]
		cols := bench.Variants(bench.Libs(m, true))
		col := cols[r.IntN(len(cols))]
		n := 2 + r.IntN(15)
		// Symmetric allocations need every rank's chunk the same height.
		cfg := column(jacobi.Config{Model: m, NGPUs: n, NX: 3 + r.IntN(1<<r.IntN(13)), NY: n * (1 + r.IntN(64)),
			Iters: 1 + r.IntN(80), Warmup: r.IntN(12)}, col)
		if _, d, err := ffCompare(cfg); err != nil || d != "" {
			t.Errorf("%s/%s%s %d GPUs %dx%d, %d+%d iterations: %s%v", m.Name, col.CLI, col.Impl(),
				n, cfg.NX, cfg.NY, cfg.Warmup, cfg.Iters, d, err)
		}
	})
}
