package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/solver/cg"
	"repro/internal/sparse"
	"repro/internal/spec"
	"repro/internal/trace"
)

// netProfile profiles base's latency and bandwidth cells over the sizes,
// laid out, labelled and titled as uniconn prof -workload net does.
func netProfile(t *testing.T, base spec.Spec, sizes []int64) *RunProfile {
	t.Helper()
	var specs []spec.Spec
	for _, size := range sizes {
		base.Bytes = size
		base.Workload = spec.WorkloadNetLatency
		specs = append(specs, base)
		base.Workload = spec.WorkloadNetBandwidth
		specs = append(specs, base)
	}
	_, profs, err := SweepSpecs(NewObserve(nil, true), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range profs {
		profs[i].Label = fmt.Sprintf("%s/%dB", strings.TrimPrefix(specs[i].Workload, "net-"), specs[i].Bytes)
	}
	impl := "uniconn"
	if base.Native {
		impl = "native"
	}
	n := base.Normalize()
	return &RunProfile{
		Title: fmt.Sprintf("net %s %s %s %s (%d sizes)", n.Machine, n.Backend, impl, Placement(n.Inter), len(sizes)),
		Cells: profs,
	}
}

// nativeMPI is the base spec of the native MPI net profiles.
var nativeMPI = spec.Spec{Machine: "Perlmutter", Backend: "MPI", Native: true}

// profileOutputs runs a small multi-cell net profile and returns all three
// rendered artifacts (report, metrics JSON, Chrome trace).
func profileOutputs(t *testing.T) (report, metricsJSON, chromeTrace string) {
	t.Helper()
	rp := netProfile(t, nativeMPI, []int64{8, 64, 512})
	var rep, js, tr strings.Builder
	if err := rp.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	if err := rp.WriteMetricsJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := rp.WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	return rep.String(), js.String(), tr.String()
}

// TestProfileDeterministicAcrossWorkers is the uniconn prof acceptance test:
// every artifact is byte-identical at GOMAXPROCS 1 and 8. Run under -race it
// also proves the per-cell collector ownership rule holds (no shared
// observability state between worker goroutines).
func TestProfileDeterministicAcrossWorkers(t *testing.T) {
	setProcs(t, 1)
	rep1, js1, tr1 := profileOutputs(t)
	setProcs(t, 8)
	rep8, js8, tr8 := profileOutputs(t)
	if rep1 != rep8 {
		t.Errorf("report differs between 1 and 8 workers:\n--- w1 ---\n%s\n--- w8 ---\n%s", rep1, rep8)
	}
	if js1 != js8 {
		t.Errorf("metrics JSON differs between 1 and 8 workers")
	}
	if tr1 != tr8 {
		t.Errorf("chrome trace differs between 1 and 8 workers")
	}
	if !strings.Contains(rep1, "critical path:") || !strings.Contains(rep1, "per-rank attribution:") {
		t.Errorf("report is missing its analysis sections:\n%s", rep1)
	}
}

// TestProfileAttributionSums checks the acceptance invariant: per rank,
// compute + intra + inter + blocked == the cell's total virtual time,
// exactly.
func TestProfileAttributionSums(t *testing.T) {
	rp := netProfile(t, spec.Spec{Backend: "GPUCCL", Native: true, Inter: true}, []int64{64, 4096})
	for _, cell := range rp.Cells {
		rows := trace.Attribute(cell.spans, cell.end)
		if len(rows) == 0 {
			t.Fatalf("cell %s: no attribution rows", cell.Label)
		}
		for _, r := range rows {
			sum := r.Compute + r.Intra + r.Inter + r.Blocked
			if sum != r.Total {
				t.Errorf("cell %s rank %d: attribution parts sum to %v, total %v",
					cell.Label, r.Rank, sum, r.Total)
			}
			if r.Total != sim.Duration(cell.end) {
				t.Errorf("cell %s rank %d: total %v != cell end %v",
					cell.Label, r.Rank, r.Total, sim.Duration(cell.end))
			}
		}
	}
}

// TestProfileMetricsPopulated checks the registry actually observed the run:
// the merged snapshot counts the sends and transfers the trace saw.
func TestProfileMetricsPopulated(t *testing.T) {
	rp := netProfile(t, nativeMPI, []int64{8})
	merged := rp.Merged()
	for _, name := range []string{"sim.events", "mpi.sends.eager", "fabric.intra.transfers"} {
		found := false
		for _, c := range merged.Counters {
			if c.Name == name {
				found = c.Value > 0
				break
			}
		}
		if !found {
			t.Errorf("merged metrics missing (or zero) counter %s:\n%s", name, merged.Render())
		}
	}
}

// TestShmemTeamCollectivesObserved: Uniconn drives GPUSHMEM collectives
// through a team handle and the native baseline through the PE; both are the
// same collectives, so both must land in the same gpushmem.coll.h-*
// histograms, the same number of times.
func TestShmemTeamCollectivesObserved(t *testing.T) {
	counts := map[solver.Variant]int64{}
	for _, v := range []solver.Variant{solver.NativeGPUSHMEMHost, solver.Uniconn} {
		reg := metrics.New()
		_, err := cg.Run(cg.Config{
			Model: machine.Perlmutter(), NGPUs: 4, Matrix: sparse.Laplace3D(6, 6, 4), Iters: 5,
			Variant: v, Backend: core.GpushmemBackend, Mode: core.PureHost, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range reg.Snapshot().Histograms {
			if h.Name == "gpushmem.coll.h-allreduce" {
				counts[v] = h.Count
			}
		}
	}
	if n := counts[solver.Uniconn]; n == 0 || n != counts[solver.NativeGPUSHMEMHost] {
		t.Fatalf("gpushmem.coll.h-allreduce observations: %v, want equal and non-zero", counts)
	}
}

// TestProfileGoldenReport pins the small Fig-2 cell report that
// `uniconn prof -native -min 8 -max 8` prints (cmd/uniconn's golden test
// diffs the subcommand's stdout against the same file). Regenerate with:
//
//	go run ./cmd/uniconn prof -native -min 8 -max 8 > internal/bench/testdata/prof_fig2_small.golden
func TestProfileGoldenReport(t *testing.T) {
	rp := netProfile(t, nativeMPI, Sizes(8, 8))
	want, err := os.ReadFile(filepath.Join("testdata", "prof_fig2_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := rp.render(); got != string(want) {
		t.Errorf("report drifted from golden (regenerate if intended):\n--- got ---\n%s\n--- want ---\n%s",
			got, want)
	}
}

// TestChaosRampObserved checks an observed sweep of chaos cells matches the
// unobserved one value for value and yields one frozen profile per severity.
func TestChaosRampObserved(t *testing.T) {
	sev := []float64{0, 0.5}
	specs := chaosRamp(core.MPIBackend, spec.WorkloadNetLatency, sev)
	plain, empty, err := SweepSpecs(NewObserve(nil, false), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cp := range empty {
		if cp.spans.Len() != 0 || !cp.metrics.Empty() || cp.Transfers() != 0 {
			t.Errorf("severity %g: unobserved cell recorded a profile", sev[i])
		}
	}
	vals, profs, err := SweepSpecs(NewObserve(nil, true), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(plain) || len(profs) != len(sev) {
		t.Fatalf("got %d values, %d profiles; want %d of each", len(vals), len(profs), len(sev))
	}
	for i := range plain {
		if vals[i] != plain[i] {
			t.Errorf("severity %g: observed value %v != unobserved %v", sev[i], vals[i], plain[i])
		}
		if profs[i].end == 0 || profs[i].spans.Len() == 0 || profs[i].metrics.Empty() || profs[i].Transfers() == 0 {
			t.Errorf("severity %g: profile not populated: end=%v spans=%d",
				sev[i], profs[i].end, profs[i].spans.Len())
		}
	}
}
