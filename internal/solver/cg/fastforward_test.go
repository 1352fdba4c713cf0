package cg_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/solver/cg"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// ffCompare runs cfg fast-forwarded and in full, and returns how many
// iterations rank 0 simulated fast-forwarded and the first difference
// between the two runs' Results and sorted spans, "" when there is none.
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
	return simulated, "", nil
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
			c := v.CGConfig(cg.Config{Model: m, NGPUs: 8, Matrix: mat, Iters: 100})
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
// simulates at most 1 % of them, and the Result is the full run's. (The
// spans of 10 000 iterations would hold most of a GiB twice over; the
// 100-iteration cells above compare them.)
func TestSolverFastForwardPaperCounts(t *testing.T) {
	cfg := cg.Config{Model: machine.Perlmutter(), NGPUs: 8, Matrix: sparse.Serena().Generate(0.01),
		Iters: 10000, Variant: cg.NativeMPI}
	fast, simulated, err := cg.RunFastForward(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if simulated*100 > cfg.Iters {
		t.Errorf("rank 0 simulated %d of %d iterations", simulated, cfg.Iters)
	}
	if testing.Short() || raceEnabled {
		return
	}
	full, _, err := cg.RunFastForward(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if fast != full {
		t.Errorf("fast-forwarded %+v, full %+v", fast, full)
	}
}
