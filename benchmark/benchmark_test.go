package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that a record holds exactly the named metrics, each
// once, with its unit and a finite value.
func checkMetrics(t *testing.T, rec *record, defs []metricDef) {
	t.Helper()
	if len(rec.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d named", rec.Workload, len(rec.Metrics), len(defs))
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if seen[d.Name] {
			t.Errorf("metric %s named twice", d.Name)
		}
		seen[d.Name] = true
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
		}
		mv, ok := rec.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", rec.Workload, d.Name)
		case mv.Unit == "" || mv.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", rec.Workload, d.Name, mv.Unit, d.Unit)
		case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
			t.Errorf("%s: metric %s = %v", rec.Workload, d.Name, mv.Value)
		}
		if _, ok := rec.Samples[d.Name]; !ok {
			t.Errorf("%s: metric %s has no sample count", rec.Workload, d.Name)
		}
	}
}

// TestSmoke runs every workload at -scale smoke: once untraced and twice
// traced. Every named metric must appear exactly once with its unit, the
// end-to-end metrics must be non-zero, and digests and exact counts must
// repeat — across the two traced runs and between traced and untraced.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if !nameRE.MatchString(w.name) || w.why == "" || len(w.why) > 200 {
				t.Errorf("workload name %q / why (%d chars) outside the manifest's limits", w.name, len(w.why))
			}
			un, err := runWorkload(w, runOptions{seed: 1, seconds: runSeconds, smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, un, endToEnd)
			for _, d := range endToEnd {
				if un.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, un.Metrics[d.Name].Value)
				}
			}
			var traced [2]*record
			for k := range traced {
				traced[k], err = runWorkload(w, runOptions{seed: 1, seconds: runSeconds, smoke: true, trace: true, outDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				checkMetrics(t, traced[k], perLayer())
			}
			for _, rec := range []*record{un, traced[0], traced[1]} {
				if !rec.Correct || rec.Failed != 0 || rec.Attempted != w.smokeOps {
					t.Errorf("trace=%t: correct=%t failed=%d attempted=%d errors=%v", rec.Trace, rec.Correct, rec.Failed, rec.Attempted, rec.Errors)
				}
				if rec.Golden != "ok" {
					t.Errorf("trace=%t: golden %s, digest %s", rec.Trace, rec.Golden, rec.Digest)
				}
			}
			var sum float64
			for _, b := range layerBudget {
				sum += traced[0].Metrics[b.Name].Value
			}
			if math.Abs(sum-100) > 1 {
				t.Errorf("budget shares sum to %v, want 100 +- 1", sum)
			}
			for _, d := range layerCounts {
				if a, b := traced[0].Metrics[d.Name].Value, traced[1].Metrics[d.Name].Value; a != b {
					t.Errorf("count %s differs between identical runs: %v vs %v", d.Name, a, b)
				}
			}
			for _, f := range []string{w.name + ".spans.json", w.name + ".cpu.pprof"} {
				if st, err := os.Stat(dir + "/" + f); err != nil || st.Size() == 0 {
					t.Errorf("traced run left no %s: %v", f, err)
				}
			}
		})
	}
}

// TestManifest pins BENCHMARK.json to the names in the code.
func TestManifest(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the code's workloads and metrics; run `bash benchmark/run.sh -write-manifest`")
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, the manifest allows 128", n)
	}
	hasSetup := false
	for _, d := range endToEnd {
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestQuartiles checks the spread statistic against values computed with
// Python's statistics.quantiles(xs, n=4) and statistics.median.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{105, 129, 87, 86, 111, 111, 89, 81, 108, 92, 110, 100, 75, 105, 103, 109, 76, 119, 99, 91, 103, 129, 106, 101, 84, 111, 74, 87, 86, 103, 103, 106, 86, 111, 75, 87, 102, 121, 111, 88, 89, 101, 106, 95, 103, 107, 101, 81, 109, 104}, 87, 102.5, 108.25},
		{[]float64{5, 1, 4, 2, 3.5}, 1.5, 3.5, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); q1 != c.q1 || m != c.med || q3 != c.q3 {
			t.Errorf("%v: quartiles %v, %v, %v; Python gives %v, %v, %v", c.xs, q1, m, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	thr := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "op_us_p50", Better: "lower", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	tight := func(m float64) side { return side{Runs: 5, Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	for _, c := range []struct {
		def  metricDef
		a, b side
		want string
	}{
		{thr, tight(100), tight(95), "ok"},
		{thr, tight(100), tight(85), "regressed"},
		{thr, tight(100), tight(130), "ok"},
		{lat, tight(100), tight(112), "regressed"},
		{lat, tight(100), tight(80), "ok"},
		{lat, side{Runs: 5, Median: 100, Q1: 90, Q3: 110}, tight(100), "unresolved"},
		{setup, tight(0.05), tight(0.12), "ok"}, // +140 % but within the 0.1 s slack
		{setup, tight(2.0), tight(2.6), "regressed"},
	} {
		if _, got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.def.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "sched"},
		{[]string{"runtime.memmove", "repro/internal/gpu.(*Buffer[go.shape.float64]).clone"}, "memmove"},
		{[]string{"runtime.lock2", "runtime.mallocgc", "runtime.makeslice", "repro/internal/buf.(*Pool[go.shape.float64]).Get"}, "alloc_gc"},
		{[]string{"runtime.mapaccess2_faststr", "repro/internal/mpi.(*Comm).admit", "repro/internal/sim.(*Engine).dispatch"}, "mpi"},
		{[]string{"repro/internal/sim.(*eventQueue).pop", "repro/internal/sim.(*Engine).dispatch"}, "sim"},
		{[]string{"reflect.Value.Field", "encoding/json.(*encodeState).reflectValue", "repro/internal/bench.Result.Encode"}, "trace_json"},
		{[]string{"crypto/sha256.block", "main.leafOf"}, "other"},
		{[]string{"repro/internal/solver/jacobi.(*state).sweep"}, "core_solver"},
		{nil, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
