package bench

// Topology-aware recovery tests: Shrink during a hierarchical-size allreduce
// on every backend, and hard-fault recovery around dead switches and links
// on switched topologies (run under -race in CI).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/sim"
)

// TestShrinkDuringHierarchicalAllreduce crashes rank 1 of 16 (4 Perlmutter
// nodes x 4 GPUs) under a 64 KiB allreduce — past the MPI hierarchical
// crossover, so the pre-crash iterations run the SMP-aware algorithm. The
// survivor set straddles node 0, so after Shrink the hierarchical layout is
// gone and auto-selection must re-check its thresholds on the shrunk
// communicator instead of reducing over a stale node map. The survivors'
// checksum proves the post-shrink reduction is over exactly the 15 live
// ranks, on all three backends.
func TestShrinkDuringHierarchicalAllreduce(t *testing.T) {
	const nGPUs, elems = 16, 8 << 10 // 64 KiB of float64
	m := machine.Perlmutter()
	plan := &faults.Plan{
		Crashes:  []faults.RankCrash{{Rank: 1, At: sim.Time(sim.Millisecond)}},
		Lease:    sim.Millisecond,
		Watchdog: sim.Second,
	}
	// The recovery workload fills in[i] = rank + i%7 and reports the lowest
	// survivor's final allreduce sum.
	want := 0.0
	for i := 0; i < elems; i++ {
		for r := 0; r < nGPUs; r++ {
			if r != 1 {
				want += float64(r + i%7)
			}
		}
	}
	for _, backend := range []core.BackendID{core.MPIBackend, core.GpucclBackend, core.GpushmemBackend} {
		t.Run(backend.String(), func(t *testing.T) {
			pt := runRecovery(recoveryConfig{
				model: m, backend: backend, nGPUs: nGPUs, plan: plan, count: elems,
			}, &collector{}, "")
			if pt.Err != "" || !pt.Completed {
				t.Fatalf("run did not complete: %+v", pt)
			}
			if pt.Crashes != 1 || pt.Survivors != nGPUs-1 {
				t.Fatalf("survivor accounting: %+v", pt)
			}
			if pt.checksum != want {
				t.Fatalf("post-shrink checksum %v, want %v (reduction not over the 15 survivors)",
					pt.checksum, want)
			}
		})
	}
}

// TestRecoverySwitchedTopologies is the switched-topology hard-fault
// acceptance check (run under -race in CI): a 32-rank recovery cell with
// crashes, a crashed aggregation switch / dead global channel, and a dead
// intra-node route must complete on both switched topologies, with the
// survivors recovered and the failover counter proving the plan actually
// forced detours.
func TestRecoverySwitchedTopologies(t *testing.T) {
	topos := []fabric.TopologyConfig{
		{Kind: fabric.TopoFatTree}, // 8 nodes -> k=4, spare aggregations
		{Kind: fabric.TopoDragonfly, DragonflyHosts: 1, DragonflyRouters: 2, DragonflyGlobal: 2}, // 4 groups
	}
	const nGPUs = 32
	horizon := 4 * sim.Millisecond
	for _, tc := range topos {
		t.Run(tc.Kind.String(), func(t *testing.T) {
			mt := *machine.Perlmutter()
			mt.Topology = tc
			plan := faults.GenerateHard(11, 1, mt.FabricConfig(mt.NodesFor(nGPUs)), nGPUs, horizon)
			pt := runRecovery(recoveryConfig{
				model: &mt, backend: core.MPIBackend, nGPUs: nGPUs, plan: plan, horizon: horizon,
			}, &collector{}, "")
			if pt.Err != "" || !pt.Completed {
				t.Fatalf("%s did not complete: %+v", tc.Describe(), pt)
			}
			if pt.Failovers == 0 {
				t.Fatalf("no failovers on %s despite injected switch/link faults: %+v", tc.Describe(), pt)
			}
			if pt.Crashes == 0 || pt.Recoveries == 0 {
				t.Fatalf("plan crashed no ranks or survivors never recovered: %+v", pt)
			}
		})
	}
}
