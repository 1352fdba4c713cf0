package bench

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/solver/cg"
	"repro/internal/sparse"
	"repro/internal/spec"
	"repro/internal/trace"
)

// answer is everything a cell reports that a figure, a golden or a profile
// can see: the headline value, the virtual time the run ended at, and every
// span it recorded (compared span for span, which is what a span digest
// stands for, without hashing a million of them).
type answer struct {
	value float64
	end   sim.Time
	spans []trace.Span
}

// spansOf lists the log's spans in their sorted order.
func spansOf(l *trace.Log) []trace.Span { return slices.Collect(l.Sorted().Spans()) }

// differs describes the first difference between a cell's real and phantom
// answers, "" when there is none.
func (a answer) differs(b answer) string {
	switch {
	case a.value != b.value || a.end != b.end:
		return fmt.Sprintf("real value=%v end=%d, phantom value=%v end=%d", a.value, a.end, b.value, b.end)
	case len(a.spans) != len(b.spans):
		return fmt.Sprintf("real %d spans, phantom %d", len(a.spans), len(b.spans))
	}
	for i := range a.spans {
		if a.spans[i] != b.spans[i] {
			return fmt.Sprintf("span %d: real %+v, phantom %+v", i, a.spans[i], b.spans[i])
		}
	}
	return ""
}

// bothWays runs n cells as one Sweep, each with real and then with
// phantom payloads (run names the cell and answers for it), and fails the test
// for every cell whose two answers differ.
func bothWays(t *testing.T, n int, run func(i int, real bool) (string, answer, error)) {
	t.Helper()
	diffs, _, err := Sweep(nil, n, func(i int, _ *Collector) (string, CellProfile, error) {
		label, real, err := run(i, true)
		if err != nil {
			return "", CellProfile{}, fmt.Errorf("%s, real: %w", label, err)
		}
		_, phantom, err := run(i, false)
		if err != nil {
			return "", CellProfile{}, fmt.Errorf("%s, phantom: %w", label, err)
		}
		if d := real.differs(phantom); d != "" {
			return label + ": " + d, CellProfile{}, nil
		}
		return "", CellProfile{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		if d != "" {
			t.Error(d)
		}
	}
}

// TestPhantomEqualsReal is the oracle of the phantom-payload switch: every
// quick-scale cell of Figs 2-6 answers the same — headline value, end of run,
// every span — whether its payload vectors are real memory or phantoms.
//
// The net cells are every column of every machine at both placements over the
// quick size ladder, latency and bandwidth (Fig 2's cells are a subset of
// Figs 3 and 4's), each run once with NetConfig.functional and once without.
// A functional cell runs every iteration and a phantom one fast-forwards its
// steady state (core/fastforward.go), so each pair also holds fast-forward to
// the full run.
// Cells of 512 KiB and more run 2 + 1 iterations instead of the default
// 20 + 2 or 100 + 10 — the real side moves every byte of every repetition,
// which is what made the figures slow, and the repetitions of a deterministic
// cell add nothing; testdata/p2p_pins.golden holds the 1 MiB cells at the
// default counts, captured with real buffers, and replays with phantom ones.
//
// The Jacobi and CG cells are the eight columns at the Fig 5 and Fig 6 quick
// shapes, functional (real vectors, every element computed) against modelled
// (phantom vectors); that a modelled run with real-but-unread vectors — the
// code before the switch — answers the same too is again what the pins,
// captured from it, replay. A modelled solver run fast-forwards its steady
// state and a functional one computes every iteration, so these pairs are
// also the solvers' fast-forward-against-full differential (the synchronous
// columns skip; the columns whose host runs ahead run in full).
//
// Under -short or the race detector the ladder is 8 B, 4 KiB and 64 KiB and
// the Jacobi grid is 512 x 512 and the CG matrix a fifth the size; CI runs
// the full test in its no-race step.
func TestPhantomEqualsReal(t *testing.T) {
	const largeCell = 512 << 10
	sizes, nx, cgScale := netSizes(Quick), 1<<12, 0.05
	if testing.Short() || raceEnabled {
		sizes, nx, cgScale = []int64{8, 4 << 10, 64 << 10}, 1<<9, 0.01
	}

	type netCell struct {
		cfg       NetConfig
		bandwidth bool
		label     string
	}
	var cells []netCell
	for _, m := range machine.All() {
		for _, inter := range []bool{false, true} {
			for _, v := range Variants(Libs(m, false)) {
				for _, size := range sizes {
					cfg := NetConfig{Model: m, Backend: v.Backend, API: v.API, Native: v.Native, Inter: inter, Bytes: size}
					if size >= largeCell {
						cfg.Iters, cfg.Warmup = 2, 1
					}
					label := fmt.Sprintf("%s/%s%s/%s/%d", m.Name, v.net, v.Impl(), Placement(inter), size)
					cells = append(cells,
						netCell{cfg, false, "net-latency/" + label},
						netCell{cfg, true, "net-bandwidth/" + label})
				}
			}
		}
	}
	// A real bandwidth cell at 4 MiB holds 512 MiB of message buffers: the
	// sweep's workers take turns at the real side of the large cells, and
	// collect each one's garbage before the next starts, so the test's
	// footprint is one such cell and not two per worker.
	var large sync.Mutex
	bothWays(t, len(cells), func(i int, real bool) (string, answer, error) {
		cfg := cells[i].cfg
		cfg.functional, cfg.trace = real, trace.New()
		if real && cfg.Bytes >= largeCell {
			large.Lock()
			defer large.Unlock()
			defer runtime.GC()
		}
		if cells[i].bandwidth {
			bw, rep, err := bandwidthRun(cfg)
			return cells[i].label, answer{bw, rep.End, spansOf(cfg.trace)}, err
		}
		lat, rep, err := LatencyRun(cfg)
		return cells[i].label, answer{float64(lat), rep.End, spansOf(cfg.trace)}, err
	})
	t.Logf("%d net cells, sizes to %s", len(cells), HumanBytes(sizes[len(sizes)-1]))

	m := machine.Perlmutter()
	mat := sparse.Serena().Generate(cgScale)
	cols := Variants(Libs(m, false))
	bothWays(t, 2*len(cols), func(i int, compute bool) (string, answer, error) {
		v, log := cols[i/2], trace.New()
		if i%2 == 0 {
			s := v.Spec(spec.Spec{Workload: spec.WorkloadJacobi, Machine: m.Name, Ranks: 64, NX: nx, NY: nx,
				Iters: 60, Warmup: 10, Compute: compute})
			total, rep, err := runSpec(s, &Collector{log: log})
			return "jacobi/" + v.app + v.Impl(), answer{total, rep.End, spansOf(log)}, err
		}
		s := v.Spec(spec.Spec{Workload: spec.WorkloadCG, Machine: m.Name, Ranks: 8, Iters: 30})
		r, err := cgRun(s, mat, compute, log)
		return "cg/" + v.app + v.Impl(), answer{float64(r.Total), r.End, spansOf(log)}, err
	})
}

// cgRun runs the cg spec s as runSpec does, but on the matrix mat, which
// may hold entries, functionally when compute is set, recording into log.
func cgRun(s spec.Spec, mat *sparse.CSR, compute bool, log *trace.Log) (cg.Result, error) {
	m, err := s.Model()
	if err != nil {
		return cg.Result{}, err
	}
	backend, err := s.BackendID()
	if err != nil {
		return cg.Result{}, err
	}
	impl, mode := s.Implementation()
	return cg.Run(cg.Config{Model: m, NGPUs: s.Ranks, Matrix: mat, Iters: s.Iters, Compute: compute,
		DisableAllgatherv: s.NoAllgatherv, Variant: impl, Backend: backend, Mode: mode, Trace: log})
}

// allocated reports the bytes the heap handed out while fn ran (everything
// the garbage collector has since taken back included) and how many of the
// allocations were larger than 32 KiB, the top of the runtime's
// allocs-by-size histogram.
func allocated(fn func()) (bytes, large uint64) {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs-by-size:bytes"}}
	read := func() (bytes, large uint64) {
		metrics.Read(sample)
		h := sample[1].Value.Float64Histogram()
		for i, n := range h.Counts {
			if h.Buckets[i] > 32<<10 {
				large += n
			}
		}
		return sample[0].Value.Uint64(), large
	}
	b0, l0 := read()
	fn()
	b1, l1 := read()
	return b1 - b0, l1 - l0
}

// TestPhantomAllocationBudget pins what phantom payloads are for. A modelled
// 64-rank 4096 x 4096 Jacobi cell — the benchmark's apps-backends shape, whose
// grids are 138 MB — allocates at most 10 MiB all told on every column (3.0 to
// 8.4 MiB: message headers, posted receives, requests and kernel closures,
// bookkeeping that no phantom removes). And a net-bandwidth cell at 4 MiB,
// whose window of messages is 256 MiB a rank, makes no allocation above
// 32 KiB, let alone a buffer of 1 MiB (it allocates 44 to 920 KiB all told).
// A payload vector that turns real again fails here first.
func TestPhantomAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates shadow state; run without -race")
	}
	m := machine.Perlmutter()
	for _, v := range Variants(Libs(m, false)) {
		s := v.Spec(spec.Spec{Workload: spec.WorkloadJacobi, Machine: m.Name, Ranks: 64, NX: 4096, NY: 4096,
			Iters: 60, Warmup: 10})
		got, _ := allocated(func() {
			if _, _, err := runSpec(s, &Collector{}); err != nil {
				t.Fatalf("jacobi %s%s: %v", v.app, v.Impl(), err)
			}
		})
		t.Logf("jacobi %s%s: %s allocated", v.app, v.Impl(), HumanBytes(int64(got)))
		if got > 10<<20 {
			t.Errorf("modelled jacobi %s%s allocated %s, budget 10MiB", v.app, v.Impl(), HumanBytes(int64(got)))
		}

		net := NetConfig{Model: m, Backend: v.Backend, API: v.API, Native: v.Native, Inter: true, Bytes: 4 << 20}
		got, large := allocated(func() {
			if _, _, err := bandwidthRun(net); err != nil {
				t.Fatalf("net-bandwidth %s%s: %v", v.net, v.Impl(), err)
			}
		})
		t.Logf("net-bandwidth %s%s at 4MiB: %s allocated", v.net, v.Impl(), HumanBytes(int64(got)))
		if large > 0 {
			t.Errorf("phantom net-bandwidth %s%s at 4MiB made %d allocations above 32KiB (%s in all)",
				v.net, v.Impl(), large, HumanBytes(int64(got)))
		}
	}
}

// TestFig6PhantomMatrix is the oracle of the phantom matrix: every bar of
// every quick Fig 6 panel answers the same — total (and so per-iteration)
// time, end of run, every span — on Generate's CSR as through the door
// RunFig6 takes (runSpec), which hands the cell the phantom: the same row
// offsets and no entries. Under -short or the race detector the matrices are
// a fifth the size.
func TestFig6PhantomMatrix(t *testing.T) {
	scale, iters := fig6Sizing(Quick)
	if testing.Short() || raceEnabled {
		scale /= 5
	}
	csr := map[string]*sparse.CSR{}
	for name, gen := range cgGenerators {
		csr[name] = gen.Generate(scale)
	}
	var bars []fig6Bar
	for _, m := range []*machine.Model{machine.Perlmutter(), machine.LUMI()} {
		for _, mat := range []string{spec.MatrixSerena, spec.MatrixQueen} {
			for _, b := range fig6Bars(m, spec.Spec{Workload: spec.WorkloadCG, Machine: m.Name, Ranks: 8,
				Matrix: mat, Scale: scale, Iters: iters}) {
				b.label = m.Name + "/" + mat + "/" + b.label
				bars = append(bars, b)
			}
		}
	}
	bothWays(t, len(bars), func(i int, real bool) (string, answer, error) {
		b, log := bars[i], trace.New()
		if real {
			r, err := cgRun(b.spec, csr[b.spec.Matrix], false, log)
			return b.label, answer{float64(r.Total), r.End, spansOf(log)}, err
		}
		total, rep, err := runSpec(b.spec, &Collector{log: log})
		return b.label, answer{total, rep.End, spansOf(log)}, err
	})
	t.Logf("%d Fig 6 bars at scale %g", len(bars), scale)
}
