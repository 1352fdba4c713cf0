package cg_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/solver/cg"
	"repro/internal/sparse"
	"repro/internal/spec"
	"repro/internal/trace"
)

// column is base configured as the column v runs it: the implementation
// and launch mode its spec names, as the harness's runSpec configures them.
func column(base cg.Config, v bench.Variant) cg.Config {
	base.Backend = v.Backend
	base.Variant, base.Mode = v.Spec(spec.Spec{}).Implementation()
	return base
}

// ffCompare runs cfg fast-forwarded and in full, and returns how many
// iterations rank 0 simulated fast-forwarded and the first difference
// between the two runs' Results, sorted spans and span analyses, "" when
// there is none.
func ffCompare(cfg cg.Config) (int, string, error) {
	fastLog, fullLog := trace.New(), trace.New()
	cfg.Trace = fastLog
	fast, simulated, err := cg.RunFastForward(cfg, false)
	if err != nil {
		return 0, "", err
	}
	cfg.Trace = fullLog
	full, _, err := cg.RunFastForward(cfg, true)
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

// TestSolverFastForwardEqualsFull holds every Fig 6 column on every machine,
// at the apps-backends shape (8 GPUs, 100 iterations), to its full run:
// equal Result, equal sorted spans. In the apps-backends cells (Perlmutter)
// the MPI and GPUSHMEM-host columns, whose host waits for every dot product,
// simulate at most 10 % of their iterations, and the GPUCCL columns, which
// repeat only every seven iterations, at most 40 % (on LUMI the MPI columns'
// transient is longer). On every machine the device columns' host runs ahead
// of its device, their loop never repeats, and they simulate all of them.
func TestSolverFastForwardEqualsFull(t *testing.T) {
	mat := sparse.Serena().Generate(0.01)
	type cell struct {
		cfg   cg.Config
		col   bench.Variant
		label string
	}
	var cells []cell
	for _, m := range []*machine.Model{machine.Perlmutter(), machine.LUMI(), machine.MareNostrum5()} {
		if raceEnabled && m.Name != "Perlmutter" {
			continue // the race detector's tenfold cost: the apps-backends cells only
		}
		for _, v := range bench.Variants(bench.Libs(m, false)) {
			c := column(cg.Config{Model: m, NGPUs: 8, Matrix: mat, Iters: 100}, v)
			cells = append(cells, cell{c, v, fmt.Sprintf("%s/%s%s", m.Name, v.CLI, v.Impl())})
		}
	}
	msgs, _, err := bench.Sweep(nil, len(cells), func(i int, _ *bench.Collector) (string, bench.CellProfile, error) {
		c := cells[i]
		simulated, d, err := ffCompare(c.cfg)
		total := c.cfg.Iters
		switch {
		case err != nil:
			return "", bench.CellProfile{}, fmt.Errorf("%s: %w", c.label, err)
		case d != "":
			return fmt.Sprintf("%s: %s", c.label, d), bench.CellProfile{}, nil
		case c.col.API == machine.APIDevice && simulated != total:
			return fmt.Sprintf("%s: rank 0 simulated %d of %d iterations of a loop that runs ahead", c.label, simulated, total), bench.CellProfile{}, nil
		case c.cfg.Model.Name != "Perlmutter" || c.col.API == machine.APIDevice:
			// No fraction bound off the apps-backends machine, and a device
			// column's is the one above.
		case c.col.Backend == core.GpucclBackend && simulated*10 > total*4:
			return fmt.Sprintf("%s: rank 0 simulated %d of %d iterations, want at most 40 %%", c.label, simulated, total), bench.CellProfile{}, nil
		case c.col.Backend != core.GpucclBackend && simulated*10 > total:
			return fmt.Sprintf("%s: rank 0 simulated %d of %d iterations, want at most 10 %%", c.label, simulated, total), bench.CellProfile{}, nil
		}
		t.Logf("%s: rank 0 simulated %d of %d iterations (%.0f %%)", c.label, simulated, total, 100*float64(simulated)/float64(total))
		return "", bench.CellProfile{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if m != "" {
			t.Error(m)
		}
	}
}

// TestSolverFastForwardPaperCounts runs the apps-backends MPI column of
// Fig 6 at the paper's own count (§VI-D: 10 000 iterations): rank 0
// simulates at most 1 % of them, and the Result, the sorted spans and every
// span analysis are the full run's. The fast-forwarded log stores a few
// periods and folds the rest; the full run's, which stores every span, is
// skipped with the full run in short mode and under the race detector.
func TestSolverFastForwardPaperCounts(t *testing.T) {
	cfg := cg.Config{Model: machine.Perlmutter(), NGPUs: 8, Matrix: sparse.Serena().Generate(0.01),
		Iters: 10000, Variant: solver.NativeMPI}
	if testing.Short() || raceEnabled {
		fast, simulated, err := cg.RunFastForward(cfg, false)
		if err != nil || simulated*100 > cfg.Iters {
			t.Errorf("rank 0 simulated %d of %d iterations (err %v)", simulated, cfg.Iters, err)
		}
		if fast.Total <= 0 {
			t.Errorf("fast-forwarded %+v", fast)
		}
		return
	}
	simulated, d, err := ffCompare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if simulated*100 > cfg.Iters {
		t.Errorf("rank 0 simulated %d of %d iterations", simulated, cfg.Iters)
	}
	if d != "" {
		t.Errorf("fast-forward differs from the full run: %.2000s", d)
	}
}

// FuzzSolverFastForward draws a CG cell — machine, Fig 6 column, 2 to 16
// GPUs, a small 3D Laplacian and 1 to 60 iterations — and holds its
// fast-forwarded run to its full run: equal Result, equal sorted spans. The
// GPUCCL columns, whose steady state repeats only every seven iterations,
// are drawn like any other.
func FuzzSolverFastForward(f *testing.F) {
	for i := range 16 {
		f.Add(uint64(i) * 0x9E3779B97F4A7C15)
	}
	machines := []*machine.Model{machine.Perlmutter(), machine.LUMI(), machine.MareNostrum5()}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rand.New(rand.NewPCG(seed, 0))
		m := machines[r.IntN(len(machines))]
		cols := bench.Variants(bench.Libs(m, false))
		col := cols[r.IntN(len(cols))]
		n := 2 + r.IntN(15)
		// At least 2·2·4 = 16 rows: one per GPU.
		mat := sparse.Laplace3D(2+r.IntN(7), 2+r.IntN(7), 4+r.IntN(5))
		cfg := column(cg.Config{Model: m, NGPUs: n, Matrix: mat, Iters: 1 + r.IntN(60)}, col)
		if _, d, err := ffCompare(cfg); err != nil || d != "" {
			t.Errorf("%s/%s%s %d GPUs %d rows, %d iterations: %s%v", m.Name, col.CLI, col.Impl(),
				n, mat.Rows, cfg.Iters, d, err)
		}
	})
}

// TestLUMIQueenGPUCCLSchedules is the first probe of Fig 6's LUMI/Queen
// GPUCCL gap (ROADMAP item 20): at the quick scale both GPUCCL columns
// settle into a steady schedule, and the test logs each one's cycle, period
// and one period's critical chain.
func TestLUMIQueenGPUCCLSchedules(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("two full 100-iteration runs")
	}
	mat := sparse.Queen4147().Generate(0.05)
	for _, v := range bench.Variants(bench.Libs(machine.LUMI(), false)) {
		if v.Backend != core.GpucclBackend {
			continue
		}
		cfg := column(cg.Config{Model: machine.LUMI(), NGPUs: 8, Matrix: mat, Iters: 100}, v)
		k, period, chain, err := cg.SteadyState(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			t.Errorf("%s%s: no steady cycle of at most 8 iterations", v.CLI, v.Impl())
		}
		t.Logf("%s%s: k = %d, Δ = %s (%s per iteration)\n%s", v.CLI, v.Impl(), k, period, period/sim.Duration(max(k, 1)), chain)
	}
}
