package faults

import (
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// intn must be unbiased: with the Lemire rejection sampler every residue of
// a non-power-of-two bound is equally likely. A chi-square-style tolerance
// check over many draws catches both the old modulo bias and a broken
// rejection threshold.
func TestIntnDistributionUniform(t *testing.T) {
	const n, draws = 13, 13 * 20000
	r := newRand(7, "distribution")
	var buckets [n]int
	for i := 0; i < draws; i++ {
		v := r.intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
		buckets[v]++
	}
	exp := draws / n
	for v, c := range buckets {
		if c < exp*95/100 || c > exp*105/100 {
			t.Errorf("bucket %d: %d draws, expected ~%d (+-5%%)", v, c, exp)
		}
	}
}

// intn(1) must not loop or draw unbounded retries, and power-of-two bounds
// have no rejection fringe.
func TestIntnEdgeBounds(t *testing.T) {
	r := newRand(1, "edges")
	for i := 0; i < 100; i++ {
		if v := r.intn(1); v != 0 {
			t.Fatalf("Intn(1) = %d", v)
		}
		if v := r.intn(8); v < 0 || v >= 8 {
			t.Fatalf("Intn(8) = %d", v)
		}
	}
}

func hardCfg() fabric.Config { return fabric.Config{Nodes: 2, GPUsPerNode: 4, NICsPerNode: 4} }

// GenerateHard is deterministic, equals Generate (plus lease) below the
// crash threshold, and adds crashes/link-downs at the severity gates.
func TestGenerateHardThresholdsAndDeterminism(t *testing.T) {
	cfg := hardCfg()
	horizon := 10 * sim.Millisecond

	a := GenerateHard(42, 1, cfg, 8, horizon)
	b := GenerateHard(42, 1, cfg, 8, horizon)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GenerateHard not deterministic for identical inputs")
	}

	soft := GenerateHard(42, 0.25, cfg, 8, horizon)
	if len(soft.Crashes) != 0 || len(soft.LinkDowns) != 0 {
		t.Fatalf("severity 0.25 has hard faults: %+v", soft)
	}
	if soft.Lease != DefaultLease {
		t.Fatalf("lease = %v, want DefaultLease", soft.Lease)
	}

	mid := GenerateHard(42, 0.5, cfg, 8, horizon)
	if len(mid.Crashes) == 0 {
		t.Fatal("severity 0.5 generated no crashes")
	}
	if len(mid.LinkDowns) != 0 {
		t.Fatal("severity 0.5 generated link-downs below the 0.75 gate")
	}

	high := GenerateHard(42, 1, cfg, 8, horizon)
	if len(high.LinkDowns) != 1 {
		t.Fatalf("severity 1 generated %d link-downs, want 1", len(high.LinkDowns))
	}

	nGPUs := cfg.Nodes * cfg.GPUsPerNode
	seen := map[int]bool{}
	for _, cr := range high.Crashes {
		if cr.Rank < 0 || cr.Rank >= nGPUs {
			t.Fatalf("crash rank %d out of range", cr.Rank)
		}
		if seen[cr.Rank] {
			t.Fatalf("rank %d crashed twice", cr.Rank)
		}
		seen[cr.Rank] = true
		if cr.At < sim.Time(float64(horizon)*0.1) || cr.At >= sim.Time(float64(horizon)*0.6) {
			t.Fatalf("crash time %v outside [0.1, 0.6) of horizon", cr.At)
		}
	}
	if len(high.Crashes) > nGPUs-1 {
		t.Fatal("crashes left no survivor")
	}

	ld := high.LinkDowns[0]
	if ld.Path != fabric.PathIntra || ld.Src == ld.Dst {
		t.Fatalf("bad link-down %+v", ld)
	}
	if ld.Src/cfg.GPUsPerNode != ld.Dst/cfg.GPUsPerNode {
		t.Fatalf("link-down %+v crosses nodes; want intra-node pair", ld)
	}
}

// ApplyHardFaults installs link-downs on the fabric; crashes are left to
// the core scheduler.
func TestApplyHardFaults(t *testing.T) {
	cfg := hardCfg()
	f := fabric.New(cfg)
	p := &Plan{LinkDowns: []LinkDown{{Src: 0, Dst: 1, Path: fabric.PathIntra, At: 100}}}
	p.ApplyHardFaults(f)
	if !f.LinkDownAt(100, 0, 1, fabric.PathIntra) {
		t.Fatal("link-down not installed")
	}
	if f.LinkDownAt(99, 0, 1, fabric.PathIntra) {
		t.Fatal("link down before its down time")
	}
	if !injects(p) {
		t.Fatal("hard-fault plan misreported as empty")
	}
}

// TestGeneratedTopologyFaultGates pins the switched-topology gates of
// GenerateHard: a fat-tree with spare aggregations gets an aggregation crash
// from severity 0.5 and an edge-agg link down from 0.75; a >= 3-group
// dragonfly gets a dead global channel from 0.5; flat plans carry neither.
func TestGeneratedTopologyFaultGates(t *testing.T) {
	horizon := 10 * sim.Millisecond
	ftCfg := fabric.Config{Nodes: 8, GPUsPerNode: 4, NICsPerNode: 4,
		Topology: fabric.TopologyConfig{Kind: fabric.TopoFatTree}}
	dfCfg := fabric.Config{Nodes: 8, GPUsPerNode: 4, NICsPerNode: 4,
		Topology: fabric.TopologyConfig{Kind: fabric.TopoDragonfly,
			DragonflyHosts: 1, DragonflyRouters: 2, DragonflyGlobal: 2}}

	flat := GenerateHard(42, 1, hardCfg(), 8, horizon)
	if len(flat.SwitchCrashes) != 0 || len(flat.InterLinkDowns) != 0 {
		t.Fatalf("flat plan has topology faults: %+v", flat)
	}
	ft := GenerateHard(42, 0.5, ftCfg, 32, horizon)
	if len(ft.SwitchCrashes) != 1 || len(ft.InterLinkDowns) != 0 {
		t.Fatalf("fat-tree severity 0.5: %d switch crashes, %d inter-links; want 1, 0",
			len(ft.SwitchCrashes), len(ft.InterLinkDowns))
	}
	ftHigh := GenerateHard(42, 1, ftCfg, 32, horizon)
	if len(ftHigh.SwitchCrashes) != 1 || len(ftHigh.InterLinkDowns) != 1 {
		t.Fatalf("fat-tree severity 1: %d switch crashes, %d inter-links; want 1, 1",
			len(ftHigh.SwitchCrashes), len(ftHigh.InterLinkDowns))
	}
	df := GenerateHard(42, 0.5, dfCfg, 32, horizon)
	if len(df.SwitchCrashes) != 0 || len(df.InterLinkDowns) != 1 {
		t.Fatalf("dragonfly severity 0.5: %d switch crashes, %d inter-links; want 0, 1",
			len(df.SwitchCrashes), len(df.InterLinkDowns))
	}
}

// TestGeneratedPlansNeverPartition is the route-liveness property over seeded
// fault plans: whatever GenerateHard draws, every cross-node pair must keep a
// live route at every time — generated chaos degrades the fabric and forces
// detours, it never partitions. Also asserts the plans do force detours, so
// the property is not vacuous.
func TestGeneratedPlansNeverPartition(t *testing.T) {
	horizon := 10 * sim.Millisecond
	times := []sim.Time{0, sim.Time(horizon / 2), sim.Time(horizon), sim.Time(2 * horizon)}
	cfgs := []fabric.Config{
		{Nodes: 8, GPUsPerNode: 2, NICsPerNode: 2,
			Topology: fabric.TopologyConfig{Kind: fabric.TopoFatTree}}, // auto k=4
		{Nodes: 16, GPUsPerNode: 2, NICsPerNode: 2,
			Topology: fabric.TopologyConfig{Kind: fabric.TopoFatTree, FatTreeArity: 6}},
		{Nodes: 8, GPUsPerNode: 2, NICsPerNode: 2,
			Topology: fabric.TopologyConfig{Kind: fabric.TopoDragonfly,
				DragonflyHosts: 1, DragonflyRouters: 2, DragonflyGlobal: 2}}, // 4 groups
	}
	cost := fabric.LinkCost{Latency: sim.Microsecond, BytesPerSec: 1e9}
	for _, cfg := range cfgs {
		detours := 0
		for seed := uint64(0); seed < 24; seed++ {
			for _, sev := range []float64{0.5, 0.75, 1} {
				nGPUs := cfg.Nodes * cfg.GPUsPerNode
				plan := GenerateHard(seed, sev, cfg, nGPUs, horizon)
				f := fabric.New(cfg)
				plan.ApplyHardFaults(f)
				for src := 0; src < nGPUs; src++ {
					for dst := 0; dst < nGPUs; dst++ {
						if src == dst {
							continue
						}
						for _, at := range times {
							// A partitioned pair aborts the transfer with the
							// typed *UnreachableError; a rerouted one counts a
							// failover beyond any dead endpoint route's own.
							before := f.FailoverTransfers()
							err := sim.Protect(func() { f.Transfer(at, src, dst, 8, cost) })
							if err != nil {
								t.Fatalf("%s seed %d sev %g: pair %d->%d partitioned at %v: %v",
									cfg.Topology.Kind, seed, sev, src, dst, at, err)
							}
							path := f.PathBetween(src, dst)
							if f.FailoverTransfers() > before && !f.LinkDownAt(at, src, dst, path) {
								detours++
							}
						}
					}
				}
			}
		}
		if detours == 0 {
			t.Errorf("%s: no generated plan forced a detour — the liveness property is vacuous", cfg.Topology.Kind)
		}
	}
}

// ActiveLinks mirrors LinkCostAt's matching: the indices it reports are
// exactly the faults whose windows cover the transfer.
func TestActiveLinks(t *testing.T) {
	p := &Plan{Links: []LinkFault{
		{Src: Any, Dst: Any, Path: fabric.PathIntra, Window: Window{Start: 0, End: 100}},
		{Src: Any, Dst: Any, Path: fabric.PathIntra, Window: Window{Start: 200, End: 300}},
		{Src: Any, Dst: Any, Path: fabric.PathInter, Window: always},
	}}
	if got := p.ActiveLinks(50, 0, 1, fabric.PathIntra); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("at 50: %v, want [0]", got)
	}
	if got := p.ActiveLinks(150, 0, 1, fabric.PathIntra); got != nil {
		t.Fatalf("at 150: %v, want none", got)
	}
	if got := p.ActiveLinks(250, 0, 1, fabric.PathIntra); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("at 250: %v, want [1]", got)
	}
	if got := p.ActiveLinks(250, 0, 4, fabric.PathInter); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("inter at 250: %v, want [2]", got)
	}
}
