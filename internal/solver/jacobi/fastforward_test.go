package jacobi_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
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

// ffCompare runs cfg fast-forwarded and in full, and returns how many
// iterations rank 0 simulated fast-forwarded and the first difference
// between the two runs' Results, sorted spans and span analyses, "" when
// there is none.
func ffCompare(cfg jacobi.Config) (int, string, error) {
	fastLog, fullLog := trace.New(), trace.New()
	cfg.Trace = fastLog
	fast, simulated, err := jacobi.RunFastForward(cfg, false)
	if err != nil {
		return 0, "", err
	}
	cfg.Trace = fullLog
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
// spans. In the apps-backends cells (Perlmutter) the two MPI columns, whose
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
	msgs, _, err := bench.Sweep(nil, len(cells), func(i int, _ *bench.Collector) (string, bench.CellProfile, error) {
		c := cells[i]
		simulated, d, err := ffCompare(c.cfg)
		total := c.cfg.Iters + c.cfg.Warmup
		switch {
		case err != nil:
			return "", bench.CellProfile{}, fmt.Errorf("%s: %w", c.label, err)
		case d != "":
			return fmt.Sprintf("%s: %s", c.label, d), bench.CellProfile{}, nil
		case c.mpi && c.paper && simulated*10 > total*4:
			return fmt.Sprintf("%s: rank 0 simulated %d of %d iterations, want at most 40 %%", c.label, simulated, total), bench.CellProfile{}, nil
		case !c.mpi && simulated != total:
			return fmt.Sprintf("%s: rank 0 simulated %d of %d iterations of a loop that runs ahead", c.label, simulated, total), bench.CellProfile{}, nil
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

// TestSolverFastForwardEligibility: a run whose answer depends on more than
// lengths and shifted time computes every iteration — functional payloads
// (a skipped sweep computes nothing), a metrics registry, a switched
// topology — and an eligible one does not.
func TestSolverFastForwardEligibility(t *testing.T) {
	base := jacobi.Config{Model: machine.Perlmutter(), NGPUs: 4, NX: 64, NY: 64, Iters: 40, Warmup: 2}
	fatTree := *base.Model
	fatTree.Topology = fabric.TopologyConfig{Kind: fabric.TopoFatTree}
	for name, set := range map[string]func(*jacobi.Config){
		"compute":  func(c *jacobi.Config) { c.Compute = true },
		"metrics":  func(c *jacobi.Config) { c.Metrics = metrics.New() },
		"topology": func(c *jacobi.Config) { c.Model = &fatTree },
	} {
		cfg := base
		set(&cfg)
		if _, simulated, err := jacobi.RunFastForward(cfg, false); err != nil || simulated >= 0 {
			t.Errorf("%s: simulated %d, err %v; want a full run without a controller", name, simulated, err)
		}
	}
	if _, simulated, err := jacobi.RunFastForward(base, false); err != nil || simulated >= base.Iters {
		t.Errorf("eligible run: rank 0 simulated %d of %d iterations (err %v)", simulated, base.Iters+base.Warmup, err)
	}
}

// FuzzSolverFastForward draws a Jacobi cell — machine, column (the partial-
// device one included), 2 to 16 GPUs, grid width and height, and small
// iteration and warm-up counts — and holds its fast-forwarded run to its full
// run: equal Result, equal sorted spans.
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
