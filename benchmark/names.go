package main

// The names fixed by this benchmark. Every later performance or
// no-regression claim in the repository refers to a workload and a metric
// listed here; BENCHMARK.json at the repository root lists the same names
// (benchmark_test.go compares the two).

// suiteVersion changes whenever a workload's inputs, an operation count or a
// metric's definition changes: numbers from different versions do not
// compare, and compare refuses to mix them.
const suiteVersion = "uniconn-bench/1"

// metricDef names one metric. Bound is the share of the baseline median by
// which an end-to-end metric may worsen before compare reports a regression
// (0 for per-layer metrics, which have no bound).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// setupSlackS is the absolute slack on setup_s ("+25 % or +0.1 s"): the
// simulation workloads set up in well under a second, where a quarter of the
// median is a few tens of milliseconds of scheduler noise.
const setupSlackS = 0.1

// endToEnd are the numbers a user of the simulator or the what-if service
// waits on, all in host time, measured with tracing, registries and
// profiling off. An operation is one simulation cell on the coll-* and
// apps-backends workloads and one POST /query on the serve-* workloads.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_us_p50", Unit: "us", Better: "lower", Bound: 0.25},
}

// Per-layer metric families. Counts come from the traced pass and repeat
// exactly; everything else is host time and carries the sandbox's noise.
var layerCounts = []metricDef{
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.parks", Unit: "count", Better: "lower"},
	{Name: "mpi.sends.eager", Unit: "count", Better: "lower"},
	{Name: "mpi.sends.rendezvous", Unit: "count", Better: "lower"},
	{Name: "fabric.transfers", Unit: "count", Better: "lower"},
	{Name: "fabric.bytes", Unit: "B", Better: "lower"},
	{Name: "fabric.wait_ns", Unit: "ns", Better: "lower"},
	{Name: "gpu.kernels", Unit: "count", Better: "lower"},
	{Name: "gpu.stream_ops", Unit: "count", Better: "lower"},
	{Name: "buf.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "cache.hits", Unit: "count", Better: "higher"},
	{Name: "cache.misses", Unit: "count", Better: "lower"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.batches", Unit: "count", Better: "lower"},
	{Name: "serve.batched_specs", Unit: "count", Better: "lower"},
	{Name: "serve.coalesced", Unit: "count", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
}

var layerDerived = []metricDef{
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "mpi.host_ns_per_send", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "rt.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "rt.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "rt.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "rt.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "rt.peak_rss_mb", Unit: "MB", Better: "lower"},
	// Tails and the paper's headline gap: end-to-end in the issue, per-layer
	// here (see README "Demoted metrics").
	{Name: "op_us_p90", Unit: "us", Better: "lower"},
	{Name: "op_us_p99", Unit: "us", Better: "lower"},
	{Name: "apps.uniconn_gap_pct", Unit: "%", Better: "lower"},
	{Name: "serve.batch_wait_ms", Unit: "ms", Better: "lower"},
}

var layerBudget = []metricDef{
	{Name: "budget.sched_pct", Unit: "%", Better: "lower"},
	{Name: "budget.alloc_gc_pct", Unit: "%", Better: "lower"},
	{Name: "budget.memmove_pct", Unit: "%", Better: "lower"},
	{Name: "budget.sim_pct", Unit: "%", Better: "lower"},
	{Name: "budget.mpi_pct", Unit: "%", Better: "lower"},
	{Name: "budget.fabric_pct", Unit: "%", Better: "lower"},
	{Name: "budget.gpu_buf_pct", Unit: "%", Better: "lower"},
	{Name: "budget.ccl_shmem_pct", Unit: "%", Better: "lower"},
	{Name: "budget.core_solver_pct", Unit: "%", Better: "lower"},
	{Name: "budget.trace_json_pct", Unit: "%", Better: "lower"},
	{Name: "budget.other_pct", Unit: "%", Better: "lower"},
}

// appVariants are the eight Native/Uniconn × backend variants of the
// apps-backends workload, in the paper's Fig 5/6 order. The name is the
// metric suffix of apps.jacobi_ms.* and apps.cg_ms.*.
var appVariants = []string{
	"mpi.native", "mpi.uniconn",
	"gpuccl.native", "gpuccl.uniconn",
	"gpushmem-host.native", "gpushmem-host.uniconn",
	"gpushmem-device.native", "gpushmem-device.uniconn",
}

var layerProbes = func() []metricDef {
	names := []struct{ name, unit string }{
		{"sim.advance_ns", "ns"}, {"sim.handoff_ns", "ns"}, {"sim.handoff_1024_ns", "ns"},
		{"sim.callback_ns", "ns"}, {"sim.spawn_us", "us"},
		{"buf.getput_ns.2KiB", "ns"}, {"buf.getput_ns.1MiB", "ns"},
		{"gpu.clone_release_us.1MiB", "us"}, {"gpu.alloc_us.1MiB", "us"}, {"gpu.stream_op_ns", "ns"},
		{"fabric.transfer_ns.flat", "ns"}, {"fabric.transfer_ns.fattree", "ns"},
		{"fabric.transfer_ns.dragonfly", "ns"}, {"fabric.new_us.dragonfly", "us"},
		{"machine.cost_ns", "ns"}, {"machine.costcache_hit_ns", "ns"},
		{"mpi.p2p_eager_us", "us"}, {"mpi.p2p_rndv_us", "us"},
		{"gpuccl.p2p_us", "us"}, {"gpushmem.p2p_us.host", "us"}, {"gpushmem.p2p_us.device", "us"},
		{"core.dispatch_host_pct.mpi", "%"}, {"core.dispatch_host_pct.gpuccl", "%"},
		{"core.dispatch_host_pct.gpushmem", "%"},
		{"core.launch_us.2r", "us"}, {"core.launch_us.64r", "us"},
		{"trace.critpath_ms.64r", "ms"}, {"metrics.snapshot_us", "us"},
		{"spec.decode_us", "us"}, {"spec.validate_ns", "ns"}, {"spec.hash_ns", "ns"},
		{"cache.get_hit_ns", "ns"}, {"cache.put_evict_ns", "ns"},
		{"cache.disk_put_us", "us"}, {"cache.disk_get_us", "us"},
		{"bench.evalspec_cold_ms", "ms"}, {"bench.encode_us", "us"}, {"bench.runner_us_per_cell", "us"},
		{"serve.query_hit_ns", "ns"}, {"serve.handler_hit_ns", "ns"}, {"serve.loopback_hit_us_p50", "us"},
	}
	var defs []metricDef
	for _, n := range names {
		defs = append(defs, metricDef{Name: n.name, Unit: n.unit, Better: "lower"})
	}
	for _, app := range []string{"jacobi", "cg"} {
		for _, v := range appVariants {
			defs = append(defs, metricDef{Name: "apps." + app + "_ms." + v, Unit: "ms", Better: "lower"})
		}
	}
	return defs
}()

// perLayer lists every per-layer metric, in print order.
func perLayer() []metricDef {
	var all []metricDef
	for _, fam := range [][]metricDef{layerCounts, layerDerived, layerBudget, layerProbes} {
		all = append(all, fam...)
	}
	return all
}
