package bench

import (
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/solver"
	"repro/internal/solver/cg"
	"repro/internal/sparse"
)

// TestPrometheusNamesInjective runs real workloads over every backend (plus
// a hard-fault recovery run) to register every metric name the sim, fabric,
// mpi, gpuccl, gpushmem, and core layers produce, then asserts that
// SanitizeName maps the collected names injectively onto valid Prometheus
// names — two dotted names must never collapse into the same sample name,
// or /metrics would silently merge unrelated series.
func TestPrometheusNamesInjective(t *testing.T) {
	m := machine.Perlmutter()
	names := map[string]bool{}
	collect := func(r *metrics.Registry) {
		s := r.Snapshot()
		for _, c := range s.Counters {
			names[c.Name] = true
		}
		for _, g := range s.Gauges {
			names[g.Name] = true
		}
		for _, h := range s.Histograms {
			names[h.Name] = true
		}
	}

	// A latency (point-to-point protocol) and a CG (collectives through the
	// UNICONN API) cell per backend cover the protocol and collective instruments of
	// each library plus the scheduler and fabric layers.
	for _, b := range []core.BackendID{core.MPIBackend, core.GpucclBackend, core.GpushmemBackend} {
		r := metrics.New()
		cfg := NetConfig{Model: m, Backend: b, API: machine.APIHost, Inter: true,
			Bytes: 4 << 10, metrics: r}
		if _, _, err := LatencyRun(cfg); err != nil {
			t.Fatalf("%s latency cell: %v", b, err)
		}
		collect(r)
		r = metrics.New()
		cfg.metrics = r
		if _, err := cg.Run(cg.Config{Model: m, NGPUs: 8, Matrix: sparse.Laplace3D(8, 8, 8), Iters: 2,
			Variant: solver.Uniconn, Backend: b, Mode: core.PureHost, Metrics: r}); err != nil {
			t.Fatalf("%s allreduce cell: %v", b, err)
		}
		collect(r)
	}
	// The UNICONN collective path on GPUSHMEM goes through teams, not the
	// PE-level native collectives, so register those with a native cell.
	r := metrics.New()
	if _, err := core.Launch(core.Config{Model: m, NGPUs: 4, Backend: core.GpushmemBackend, Metrics: r},
		func(env *core.Env) {
			env.SetDevice(env.NodeRank())
			b := gpu.AllocBuffer[float64](env.Device(), 8)
			s := env.DefaultStream()
			env.ShmemPE().AllReduceOnStream(env.Proc(), s, b.Whole(), b.Whole(), gpu.ReduceSum)
			env.StreamSynchronize(s)
		}); err != nil {
		t.Fatalf("gpushmem native allreduce cell: %v", err)
	}
	collect(r)

	// A recovery run under a crash plan registers the fault-path
	// instruments (core.crashes, detector latency, fabric failover).
	r = metrics.New()
	pt := runRecovery(recoveryConfig{model: m, backend: core.MPIBackend, plan: crashPlan()},
		&collector{metrics: r}, "")
	if !pt.Completed {
		t.Fatalf("recovery cell broke: %+v", pt)
	}
	collect(r)

	// Sanity: the sweep above must have touched the major subsystems, or
	// the injectivity claim below is vacuous.
	for _, probe := range []string{"sim.events", "mpi.coll.allreduce", "gpuccl.coll.allreduce",
		"gpushmem.coll.h-allreduce", "core.crashes", "fabric.failover"} {
		if !names[probe] {
			t.Errorf("workloads did not register %q — extend the test's coverage", probe)
		}
	}

	valid := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	bySanitized := map[string]string{}
	for n := range names {
		sn := metrics.SanitizeName(n)
		if !valid.MatchString(sn) {
			t.Errorf("SanitizeName(%q) = %q is not a valid Prometheus name", n, sn)
		}
		if prev, ok := bySanitized[sn]; ok {
			t.Errorf("name collision: %q and %q both sanitize to %q", prev, n, sn)
		}
		bySanitized[sn] = n
	}
	t.Logf("checked %d registered names", len(names))
}
