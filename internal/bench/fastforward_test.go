package bench

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/mpi"
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

// ffAnswer is what a net or allreduce spec's evaluation shows: its encoded
// Result, its sorted spans, every analysis of them, its metrics snapshot as
// JSON, how many iterations rank 0 simulated (-1 when the cell ran without a
// controller) and, for an allreduce cell on real payloads, every rank's final
// recv vector.
type ffAnswer struct {
	body      []byte
	spans     []trace.Span
	analyses  string
	metrics   []byte
	simulated int
	recvs     [][]float64
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

// ffRun evaluates the valid net or allreduce spec s, with a fresh metrics
// registry, with fast-forward on, or off when full is set. With compute set,
// an allreduce cell runs on real payloads (ScaleConfig.Compute) and the
// answer carries every rank's final recv vector.
func ffRun(s spec.Spec, full, compute bool) (ffAnswer, error) {
	n := s.Normalize()
	m, err := n.Model()
	if err != nil {
		return ffAnswer{}, err
	}
	log, reg := trace.New(), metrics.New()
	col := &collector{log: log, metrics: reg}
	var a ffAnswer
	var v float64
	var rep core.Report
	if n.Workload == spec.WorkloadAllreduce {
		var cfg ScaleConfig
		if cfg, err = scaleConfig(n, m, col); err != nil {
			return a, err
		}
		cfg.full, cfg.Compute = full, compute
		if compute {
			cfg.recvs = make([][]float64, cfg.Ranks)
		}
		var d sim.Duration
		d, rep, a.simulated, err = cfg.run()
		v, a.recvs = float64(d), cfg.recvs
	} else {
		var cfg NetConfig
		if cfg, err = netConfig(n, m, col); err != nil {
			return a, err
		}
		cfg.full = full
		v, rep, a.simulated, err = cfg.run(n.Workload == spec.WorkloadNetBandwidth)
	}
	if err != nil {
		return a, fmt.Errorf("%s: %w", n, err)
	}
	a.spans, a.analyses = spansOf(log), spanAnalyses(log, rep.End)
	var snap bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&snap); err != nil {
		return a, err
	}
	a.metrics = snap.Bytes()
	a.body, err = newResult(n, n.Hash(), v, rep, log).Encode()
	return a, err
}

// ffCompare runs s fast-forwarded and in full (an allreduce cell on real
// payloads when compute is set), and returns the fast-forwarded answer and
// the first difference between the two, "" when there is none.
func ffCompare(s spec.Spec, compute bool) (ffAnswer, string, error) {
	fast, err := ffRun(s, false, compute)
	if err != nil {
		return fast, "", err
	}
	full, err := ffRun(s, true, compute)
	if err != nil {
		return fast, "", err
	}
	if !slices.EqualFunc(fast.recvs, full.recvs, func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}) {
		return fast, "final recv vectors differ", nil
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
	if !bytes.Equal(fast.metrics, full.metrics) {
		return fast, fmt.Sprintf("metrics\nfast %s\nfull %s", fast.metrics, full.metrics), nil
	}
	return fast, "", nil
}

// allreduceGrid is the allreduce cells TestFastForwardEqualsFull holds to
// their full runs, 16 timed calls after 8 warm-up ones so that either phase
// may skip: on the flat fabric every algorithm at 2, 3, 6, 16 and 64 ranks
// (the hierarchical one, which needs two whole nodes or more, at 8, 16 and
// 64; the ring, whose calls cost n² events, not at 64), and on a fat-tree
// and a dragonfly, whose fabric refuses every loop head, every algorithm at
// 6 (8) and 16.
// Sizes alternate between eager (8 008 B) and rendezvous (98 312 B); no rank
// count divides either element count (1 001 and 12 289), so the ring's
// chunks are uneven. Every other pair of cells runs on real payloads
// (compute).
func allreduceGrid() (specs []spec.Spec, compute []bool) {
	for _, topo := range []string{"flat", "fattree", "dragonfly"} {
		for _, alg := range []string{"auto", "rd", "ring", "hierarchical"} {
			ranks := []int{2, 3, 6, 16, 64}
			switch {
			case topo != "flat" && alg == "hierarchical":
				ranks = []int{8, 16}
			case topo != "flat":
				ranks = []int{6, 16}
			case alg == "hierarchical":
				ranks = []int{8, 16, 64}
			case alg == "ring":
				ranks = ranks[:4]
			}
			for _, n := range ranks {
				i := len(specs)
				specs = append(specs, spec.Spec{Workload: spec.WorkloadAllreduce, Topology: topo, Alg: alg,
					Ranks: n, Bytes: []int64{8 * 1001, 8 * 12289}[i%2], Iters: 16, Warmup: 8})
				compute = append(compute, i/2%2 == 0)
			}
		}
	}
	return specs, compute
}

// TestFastForwardEqualsFull holds fast-forward to the full run on every cell
// of the serve benchmarks' grid — the 32 serve-churn cells at three of its
// sizes and the 64 serve-warm specs (256 B and 16 KiB) — and of
// allreduceGrid: equal Result bytes, equal sorted spans, every analysis of
// the folded log equal to the same analysis of the full run's, equal metrics
// snapshots and, on real payloads, equal final recv vectors. Below 8 KiB the
// net cells run their default counts (1000 + 100 ping-pongs, 100 + 10
// windows), and rank 0 must simulate at most a tenth of them.
func TestFastForwardEqualsFull(t *testing.T) {
	var specs []spec.Spec
	for _, size := range []int64{8, 256, 1032, 3080, 16 << 10} {
		for _, s := range p2pGrid() {
			s.Bytes = size
			specs = append(specs, s)
		}
	}
	all, compute := allreduceGrid()
	compute = append(make([]bool, len(specs)), compute...)
	specs = append(specs, all...)
	msgs, _, err := sweep(nil, len(specs), func(i int, _ *collector) (string, CellProfile, error) {
		s := specs[i]
		fast, d, err := ffCompare(s, compute[i])
		switch {
		case err != nil:
			return "", CellProfile{}, err
		case d != "":
			return fmt.Sprintf("%s: %s", s, d), CellProfile{}, nil
		case s.Bytes >= 8<<10 || s.Workload == spec.WorkloadAllreduce:
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
// lengths and shifted time simulates every iteration — with a fault plan or
// functional payloads it runs without a controller, and under a flight
// recorder the engine refuses every loop head — while a metrics registry
// rides through the skip.
func TestFastForwardEligibility(t *testing.T) {
	base := NetConfig{Model: machine.Perlmutter(), Backend: core.MPIBackend, API: machine.APIHost, Bytes: 8}
	iters, warmup, _ := base.counts(false)
	for name, set := range map[string]func(*NetConfig){
		"faults":     func(c *NetConfig) { c.faults = faults.Degrade(fabric.PathIntra, 0.5) },
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

	fast, err := ffRun(spec.Spec{Workload: spec.WorkloadNetLatency, Backend: "MPI", API: "Host", Bytes: 8}, false, false)
	if err != nil || fast.simulated < 0 || fast.simulated*10 > iters+warmup {
		t.Errorf("eligible cell with a registry: rank 0 simulated %d of %d iterations (err %v)", fast.simulated, iters+warmup, err)
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
		fast, err := ffRun(s, false, false)
		if err != nil || fast.simulated > 10 {
			t.Errorf("rank 0 simulated %d of 100000 iterations (err %v)", fast.simulated, err)
		}
		return
	}
	fast, d, err := ffCompare(s, false)
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
	v, rep, err := runSpec(s, &collector{log: log})
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
// counts — or an allreduce cell — machine, algorithm, 2-16 ranks (2-4 whole
// nodes for the hierarchical algorithm), fabric, size (an element per rank
// at least, but for recursive doubling), small iteration and warm-up counts,
// phantom or real payloads — and
// holds its fast-forwarded run to its full run: equal Result bytes, equal
// sorted spans, equal critical path, attribution, traffic, comm matrix and
// summary, equal metrics snapshots and, on real payloads, equal final recv
// vectors.
func FuzzFastForward(f *testing.F) {
	for i := range 32 {
		f.Add(uint64(i) * 0x9E3779B97F4A7C15)
	}
	machines := []string{"Perlmutter", "LUMI", "MareNostrum5"}
	apis := [][2]string{{"MPI", "Host"}, {"GPUCCL", "Host"}, {"GPUSHMEM", "Host"}, {"GPUSHMEM", "Device"}}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rand.New(rand.NewPCG(seed, 0))
		var s spec.Spec
		compute := false
		switch w := []string{spec.WorkloadNetLatency, spec.WorkloadNetBandwidth, spec.WorkloadAllreduce}[r.IntN(3)]; w {
		case spec.WorkloadAllreduce:
			s = spec.Spec{
				Workload: w,
				Machine:  machines[r.IntN(len(machines))],
				Alg:      []string{"auto", "rd", "ring", "hierarchical"}[r.IntN(4)],
				Topology: []string{"flat", "fattree", "dragonfly"}[r.IntN(3)],
				Ranks:    2 + r.IntN(15),
				Bytes:    8 * int64(1+r.IntN(1<<r.IntN(14))),
				Iters:    1 + r.IntN(30),
				Warmup:   1 + r.IntN(8),
			}
			compute = r.IntN(2) == 0
			if m, err := s.Model(); err == nil && s.Alg == "hierarchical" {
				s.Ranks = m.GPUsPerNode * (2 + r.IntN(3)) // two or more whole nodes
			}
			if s.Alg != "rd" {
				s.Bytes = max(s.Bytes, 8*int64(s.Ranks)) // an element per rank, for the chunked algorithms
			}
		default:
			ba := apis[r.IntN(len(apis))]
			s = spec.Spec{
				Workload: w,
				Machine:  machines[r.IntN(len(machines))],
				Backend:  ba[0], API: ba[1],
				Native: r.IntN(2) == 0, Inter: r.IntN(2) == 0,
				Bytes:  8 * int64(1+r.IntN(1<<r.IntN(17))),
				Iters:  1 + r.IntN(60),
				Warmup: 1 + r.IntN(12),
			}
			if w == spec.WorkloadNetBandwidth {
				s.Iters, s.Window = 1+r.IntN(20), 1+r.IntN(16)
			}
		}
		if s.Validate() != nil {
			return // e.g. GPUSHMEM on LUMI
		}
		if _, d, err := ffCompare(s, compute); err != nil || d != "" {
			t.Errorf("%s (iters %d warmup %d window %d compute %v): %s%v", s, s.Iters, s.Warmup, s.Window, compute, d, err)
		}
	})
}

// TestAllreduceFastForwardDecisions pins the controller's decisions on the
// benchmark's allreduce shapes, so that nothing turns it off unnoticed: the
// coll-small-64r cell (64 ranks, 2 560 B, recursive doubling on a flat
// fabric, 20 timed calls after one warm-up, real payloads) simulates 9 of
// its 21 calls; the coll-large-64r cell (1 MiB, 4 timed calls, too few to
// skip) all 5; the coll-ring-256r cell (one timed call) both of its 2; and
// an 8-rank ring that simulates 17 of 21 calls on a flat fabric simulates
// all of them on a dragonfly, whose fabric refuses every loop head.
func TestAllreduceFastForwardDecisions(t *testing.T) {
	dragonfly := fabric.TopologyConfig{Kind: fabric.TopoDragonfly}
	for _, c := range []struct {
		name string
		cfg  ScaleConfig
		want int
	}{
		{"coll-small-64r", ScaleConfig{Ranks: 64, Bytes: 2560, Iters: 20, Warmup: 1, Compute: true}, 9},
		{"coll-large-64r", ScaleConfig{Ranks: 64, Bytes: 1 << 20, Iters: 4, Warmup: 1, Compute: true}, 5},
		{"coll-ring-256r", ScaleConfig{Ranks: 256, Bytes: 80 << 10, Iters: 1, Warmup: 1, Alg: mpi.AlgRing, Topology: dragonfly}, 2},
		{"flat ring", ScaleConfig{Ranks: 8, Bytes: 2560, Iters: 20, Warmup: 1, Alg: mpi.AlgRing}, 17},
		{"dragonfly ring", ScaleConfig{Ranks: 8, Bytes: 2560, Iters: 20, Warmup: 1, Alg: mpi.AlgRing, Topology: dragonfly}, 21},
	} {
		c.cfg.Model = machine.Perlmutter()
		if _, _, simulated, err := c.cfg.run(); err != nil || simulated != c.want {
			t.Errorf("%s: rank 0 simulated %d of %d calls, want %d (err %v)",
				c.name, simulated, c.cfg.Iters+c.cfg.Warmup, c.want, err)
		}
	}
}
