package bench

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// p2pGrid is the 32-cell grid the serve-churn benchmark draws its specs from:
// both net workloads, every backend and API, native and UNICONN, intra- and
// inter-node, on the default machine.
func p2pGrid() []spec.Spec {
	var grid []spec.Spec
	for _, wl := range []string{spec.WorkloadNetLatency, spec.WorkloadNetBandwidth} {
		for _, ba := range [][2]string{{"MPI", "Host"}, {"GPUCCL", "Host"}, {"GPUSHMEM", "Host"}, {"GPUSHMEM", "Device"}} {
			for _, native := range []bool{false, true} {
				for _, inter := range []bool{false, true} {
					grid = append(grid, spec.Spec{Workload: wl, Backend: ba[0], API: ba[1], Native: native, Inter: inter})
				}
			}
		}
	}
	return grid
}

// ffAnswer is what a net spec's evaluation shows: its encoded Result, its
// sorted spans, every analysis of them, and how many iterations rank 0
// simulated (-1 when the cell ran without a controller).
type ffAnswer struct {
	body      []byte
	spans     []trace.Span
	analyses  string
	simulated int
}

// spanAnalyses renders every analysis of a span log: the critical path with
// its class breakdown, length and ends, the attribution up to end, the
// traffic totals, the comm matrix and the summary. A fast-forwarded cell's
// log folds its skipped periods; a full run's stores every span.
func spanAnalyses(log *trace.Log, end sim.Time) string {
	v := log.Sorted()
	ranks, bytes, msgs := v.Traffic()
	return fmt.Sprintf("%s%s%d ranks, %d B in %d messages\n%s%s", trace.CriticalPath(v).Render(),
		trace.RenderBreakdown(trace.Attribute(v, end)), ranks, bytes, msgs, trace.BuildCommMatrix(v).Render(), v.Summarize().Render())
}

// ffRun evaluates the valid net spec s with fast-forward on, or off when full
// is set.
func ffRun(s spec.Spec, full bool) (ffAnswer, error) {
	n := s.Normalize()
	m, err := n.Model()
	if err != nil {
		return ffAnswer{}, err
	}
	log := trace.New()
	cfg, err := netConfig(n, m, &Collector{log: log})
	if err != nil {
		return ffAnswer{}, err
	}
	cfg.full = full
	v, rep, simulated, err := cfg.run(n.Workload == spec.WorkloadNetBandwidth)
	if err != nil {
		return ffAnswer{}, fmt.Errorf("%s: %w", n, err)
	}
	a := ffAnswer{spans: spansOf(log), analyses: spanAnalyses(log, rep.End), simulated: simulated}
	a.body, err = newResult(n, n.Hash(), v, rep, log).Encode()
	return a, err
}

// ffCompare runs s fast-forwarded and in full, and returns the fast-forwarded
// answer and the first difference between the two, "" when there is none.
func ffCompare(s spec.Spec) (ffAnswer, string, error) {
	fast, err := ffRun(s, false)
	if err != nil {
		return fast, "", err
	}
	full, err := ffRun(s, true)
	if err != nil {
		return fast, "", err
	}
	if !bytes.Equal(fast.body, full.body) {
		return fast, fmt.Sprintf("result\nfast %s\nfull %s", fast.body, full.body), nil
	}
	if len(fast.spans) != len(full.spans) {
		return fast, fmt.Sprintf("%d spans fast, %d full", len(fast.spans), len(full.spans)), nil
	}
	for i := range fast.spans {
		if fast.spans[i] != full.spans[i] {
			return fast, fmt.Sprintf("span %d: fast %+v, full %+v", i, fast.spans[i], full.spans[i]), nil
		}
	}
	if fast.analyses != full.analyses {
		return fast, fmt.Sprintf("span analyses\nfast %s\nfull %s", fast.analyses, full.analyses), nil
	}
	return fast, "", nil
}

// TestFastForwardEqualsFull holds fast-forward to the full run on every cell
// of the serve benchmarks' grid — the 32 serve-churn cells at three of its
// sizes and the 64 serve-warm specs (256 B and 16 KiB): equal Result bytes,
// equal sorted spans, and every analysis of the folded log equal to the
// same analysis of the full run's. Below 8 KiB the cells run their default counts
// (1000 + 100 ping-pongs, 100 + 10 windows), and rank 0 must simulate at most
// a tenth of them.
func TestFastForwardEqualsFull(t *testing.T) {
	var specs []spec.Spec
	for _, size := range []int64{8, 256, 1032, 3080, 16 << 10} {
		for _, s := range p2pGrid() {
			s.Bytes = size
			specs = append(specs, s)
		}
	}
	msgs, _, err := Sweep(nil, len(specs), func(i int, _ *Collector) (string, CellProfile, error) {
		s := specs[i]
		fast, d, err := ffCompare(s)
		switch {
		case err != nil:
			return "", CellProfile{}, err
		case d != "":
			return fmt.Sprintf("%s: %s", s, d), CellProfile{}, nil
		case s.Bytes >= 8<<10:
			return "", CellProfile{}, nil
		}
		total := 1100
		if s.Workload == spec.WorkloadNetBandwidth {
			total = 110
		}
		if fast.simulated < 0 || fast.simulated*10 > total {
			return fmt.Sprintf("%s: rank 0 simulated %d of %d iterations", s, fast.simulated, total), CellProfile{}, nil
		}
		return "", CellProfile{}, nil
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

// TestFastForwardEligibility: a cell whose answer depends on more than
// lengths and shifted time simulates every iteration — with a fault plan, a
// metrics registry or functional payloads it runs without a controller, and
// under a flight recorder the engine refuses every loop head.
func TestFastForwardEligibility(t *testing.T) {
	base := NetConfig{Model: machine.Perlmutter(), Backend: core.MPIBackend, API: machine.APIHost, Bytes: 8}
	iters, warmup, _ := base.counts(false)
	for name, set := range map[string]func(*NetConfig){
		"faults":     func(c *NetConfig) { c.faults = faults.Degrade(fabric.PathIntra, 0.5) },
		"metrics":    func(c *NetConfig) { c.metrics = metrics.New() },
		"functional": func(c *NetConfig) { c.functional = true },
	} {
		cfg := base
		set(&cfg)
		if _, _, simulated, err := cfg.run(false); err != nil || simulated >= 0 {
			t.Errorf("%s: simulated %d, err %v; want a full run without a controller", name, simulated, err)
		}
	}

	lc := core.Config{Model: base.model(), NGPUs: 2, Backend: base.Backend, Flight: &core.FlightConfig{Depth: 16}}
	_, got, err := core.LaunchLoops(lc, warmup, false, func(env *core.Env) { base.latencyRank(env, iters, warmup) })
	if err != nil {
		t.Fatal(err)
	}
	if got != iters+warmup {
		t.Errorf("flight recorder: rank 0 simulated %d of %d iterations", got, iters+warmup)
	}

	fast, err := ffRun(spec.Spec{Workload: spec.WorkloadNetLatency, Backend: "MPI", API: "Host", Bytes: 8}, false)
	if err != nil || fast.simulated*10 > iters+warmup {
		t.Errorf("eligible cell: rank 0 simulated %d of %d iterations (err %v)", fast.simulated, iters+warmup, err)
	}
}

// TestFastForwardPaperCounts runs an 8 B ping-pong at the paper's own counts
// (§VI-B: 100 K iterations below 8 KiB, 10 K of them warm-up): rank 0
// simulates at most ten, and the answer is the full run's.
func TestFastForwardPaperCounts(t *testing.T) {
	s := spec.Spec{Workload: spec.WorkloadNetLatency, Backend: "MPI", API: "Host", Bytes: 8, Iters: 90000, Warmup: 10000}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if testing.Short() || raceEnabled {
		fast, err := ffRun(s, false)
		if err != nil || fast.simulated > 10 {
			t.Errorf("rank 0 simulated %d of 100000 iterations (err %v)", fast.simulated, err)
		}
		return
	}
	fast, d, err := ffCompare(s)
	if err != nil {
		t.Fatal(err)
	}
	if fast.simulated > 10 {
		t.Errorf("rank 0 simulated %d of 100000 iterations", fast.simulated)
	}
	if d != "" {
		t.Errorf("fast-forward differs from the full run: %s", d)
	}
}

// TestFoldedPaperCountLog: the 8 B native GPUCCL latency cell at the
// paper's counts (90 000 + 10 000 ping-pongs, 600 002 spans) stores at most
// 10 000 span records, and its run and newResult allocate at most 2 MB: the
// skipped periods are one run record, and the analysis folds them.
func TestFoldedPaperCountLog(t *testing.T) {
	s := spec.Spec{Workload: spec.WorkloadNetLatency, Backend: "GPUCCL", API: "Host", Native: true,
		Bytes: 8, Iters: 90000, Warmup: 10000}.Normalize()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	log := trace.New()
	v, rep, err := runSpec(s, &Collector{log: log})
	if err != nil {
		t.Fatal(err)
	}
	res := newResult(s, s.Hash(), v, rep, log)
	runtime.ReadMemStats(&after)
	stored := storedRecords(log)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("%d spans, %d records stored, %d on the critical path; run and analysis allocated %.2f MB", log.Len(), stored, res.Critical.Spans, mb)
	if log.Len() != 600002 || stored > 10000 {
		t.Errorf("%d spans in %d records: want 600002 in at most 10000", log.Len(), stored)
	}
	if !raceEnabled && mb > 2 {
		t.Errorf("run and analysis allocated %.2f MB: want at most 2", mb)
	}
}

// FuzzFastForward draws a net cell — workload, machine, backend and API,
// native or UNICONN, placement, size, and small iteration, warm-up and window
// counts — and holds its fast-forwarded run to its full run: equal Result
// bytes, equal sorted spans, and equal critical path, attribution, traffic,
// comm matrix and summary.
func FuzzFastForward(f *testing.F) {
	for i := range 32 {
		f.Add(uint64(i) * 0x9E3779B97F4A7C15)
	}
	machines := []string{"Perlmutter", "LUMI", "MareNostrum5"}
	apis := [][2]string{{"MPI", "Host"}, {"GPUCCL", "Host"}, {"GPUSHMEM", "Host"}, {"GPUSHMEM", "Device"}}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rand.New(rand.NewPCG(seed, 0))
		ba := apis[r.IntN(len(apis))]
		s := spec.Spec{
			Workload: []string{spec.WorkloadNetLatency, spec.WorkloadNetBandwidth}[r.IntN(2)],
			Machine:  machines[r.IntN(len(machines))],
			Backend:  ba[0], API: ba[1],
			Native: r.IntN(2) == 0, Inter: r.IntN(2) == 0,
			Bytes:  8 * int64(1+r.IntN(1<<r.IntN(17))),
			Iters:  1 + r.IntN(60),
			Warmup: 1 + r.IntN(12),
		}
		if s.Workload == spec.WorkloadNetBandwidth {
			s.Iters, s.Window = 1+r.IntN(20), 1+r.IntN(16)
		}
		if s.Validate() != nil {
			return // e.g. GPUSHMEM on LUMI
		}
		if _, d, err := ffCompare(s); err != nil || d != "" {
			t.Errorf("%s (iters %d warmup %d window %d): %s%v", s, s.Iters, s.Warmup, s.Window, d, err)
		}
	})
}
