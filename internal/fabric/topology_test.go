package fabric

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestParseTopology(t *testing.T) {
	cases := []struct {
		in   string
		want TopologyConfig
		err  bool
	}{
		{in: "flat", want: TopologyConfig{}},
		{in: "", want: TopologyConfig{}},
		{in: "fattree", want: TopologyConfig{Kind: TopoFatTree}},
		{in: "fat-tree:8", want: TopologyConfig{Kind: TopoFatTree, FatTreeArity: 8}},
		{in: "dragonfly", want: TopologyConfig{Kind: TopoDragonfly}},
		{in: "dragonfly:4, 8, 4", want: TopologyConfig{Kind: TopoDragonfly, DragonflyHosts: 4, DragonflyRouters: 8, DragonflyGlobal: 4}},
		{in: "fattree:0", want: TopologyConfig{Kind: TopoFatTree}},
		{in: "fattree:32", want: TopologyConfig{Kind: TopoFatTree, FatTreeArity: 32}},
		{in: "flat:3", err: true},
		{in: "fattree:x", err: true},
		{in: "dragonfly:4,8", err: true},
		{in: "torus", err: true},
		// Parameters no cluster can build, and explicit ones past the bound.
		{in: "fattree:3", err: true},
		{in: "fattree:1", err: true},
		{in: "fattree:-4", err: true},
		{in: "fattree:34", err: true},
		{in: "fattree:1000000", err: true},
		{in: "dragonfly:-1,2,2", err: true},
		{in: "dragonfly:1,1,0", err: true},
		{in: "dragonfly:0,2,2", err: true},
		{in: "dragonfly:33,1,1", err: true},
	}
	for _, tc := range cases {
		got, err := ParseTopology(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseTopology(%q): no error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTopology(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseTopology(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestLargestTopologyCost pins what the largest explicit network a spec may
// name costs to build: a maxTopologyParam-ary fat-tree (its k^3 port
// timelines exist whatever the cluster size) and a maxTopologyParam-wide
// dragonfly with one host per router on 1024 nodes (4096 ranks at 4 GPUs per
// node, the largest admitted cell).
func TestLargestTopologyCost(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector allocates shadow state")
			}
		}
	}
	cases := []struct {
		nodes int
		tc    TopologyConfig
	}{
		{2, TopologyConfig{Kind: TopoFatTree, FatTreeArity: maxTopologyParam}},
		{1024, TopologyConfig{Kind: TopoDragonfly, DragonflyHosts: 1,
			DragonflyRouters: maxTopologyParam, DragonflyGlobal: maxTopologyParam}},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		New(Config{Nodes: c.nodes, GPUsPerNode: 1, NICsPerNode: 1, Topology: c.tc})
		runtime.ReadMemStats(&after)
		bytes, objs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("%s on %d nodes: %.1f MiB, %d objects", c.tc.Describe(), c.nodes, float64(bytes)/(1<<20), objs)
		if bytes > 8<<20 || objs > 250_000 {
			t.Errorf("%s on %d nodes costs %d bytes in %d objects, want <= 8 MiB and 250k",
				c.tc.Describe(), c.nodes, bytes, objs)
		}
	}
}

func TestFatTreeAutoSize(t *testing.T) {
	cases := []struct{ nodes, wantK int }{
		{1, 2}, {2, 2}, {3, 4}, {16, 4}, {17, 6}, {54, 6}, {55, 8}, {1024, 16},
	}
	for _, tc := range cases {
		f := New(Config{Nodes: tc.nodes, GPUsPerNode: 1, NICsPerNode: 1,
			Topology: TopologyConfig{Kind: TopoFatTree}})
		if k := f.Topology().FatTreeArity; k != tc.wantK {
			t.Errorf("nodes=%d: auto arity %d, want %d", tc.nodes, k, tc.wantK)
		}
	}
	// Explicit arity too small for the cluster must fail at construction.
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("fat-tree k=4 with 17 nodes did not panic")
			}
		}()
		New(Config{Nodes: 17, GPUsPerNode: 1, NICsPerNode: 1,
			Topology: TopologyConfig{Kind: TopoFatTree, FatTreeArity: 4}})
	}()
}

// TestFatTreeHops pins the three hop classes of a k=4 fat-tree (2 nodes per
// edge switch, 4 per pod): 1 hop under a shared edge switch, 3 within a pod,
// 5 across pods — and that extra() is exactly hops*hopLatency, the wire time
// a rendezvous control envelope pays.
func TestFatTreeHops(t *testing.T) {
	f := New(Config{Nodes: 16, GPUsPerNode: 1, NICsPerNode: 1,
		Topology: TopologyConfig{Kind: TopoFatTree, FatTreeArity: 4, hopLatency: 100}})
	cases := []struct{ src, dst, want int }{
		{0, 1, 1}, // same edge switch
		{0, 2, 3}, // same pod, different edge
		{0, 4, 5}, // different pod
		{5, 4, 1},
		{15, 0, 5},
	}
	for _, tc := range cases {
		want := sim.Duration(tc.want) * 100
		if got := f.InterExtraLatency(tc.src, tc.dst); got != want {
			t.Errorf("InterExtraLatency(%d,%d) = %d, want %d", tc.src, tc.dst, got, want)
		}
	}
	if f.InterExtraLatency(3, 3) != 0 {
		t.Errorf("same-node InterExtraLatency nonzero")
	}
	if ft := f.topo.(*fatTree); len(ft.edgeUp)+len(ft.aggUp)+len(ft.coreDown) != 8+8+4 {
		t.Errorf("%d switches, want 20", len(ft.edgeUp)+len(ft.aggUp)+len(ft.coreDown))
	}
}

// ftLevel classifies a fat-tree port timeline by the level transition it
// represents: +1 edge->agg, +2 agg->core, -2 core->agg, -1 agg->edge.
func ftLevel(tl *sim.Timeline) int {
	l := tl.Label()
	switch {
	case strings.HasPrefix(l, "ft.edge"):
		return +1
	case strings.Contains(l, "agg") && strings.Contains(l, ".up"):
		return +2
	case strings.HasPrefix(l, "ft.core"):
		return -2
	case strings.Contains(l, "agg") && strings.Contains(l, ".down"):
		return -1
	}
	return 0
}

// TestFatTreeUpDownRouting asserts the deadlock-freedom invariant of up*/
// down* routing on every node pair of a k=4 tree: each adaptive route climbs
// monotonically (edge->agg[->core]) and then only descends — no
// down-then-up transition, so the channel dependency graph stays acyclic.
func TestFatTreeUpDownRouting(t *testing.T) {
	ft := newFatTree(4, 100)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			ports, extra, _, _ := ft.route(nil, 0, src, dst)
			if len(ports) != ft.minHops(src, dst)-1 {
				t.Fatalf("route(%d,%d): %d switch ports, want minHops-1 = %d",
					src, dst, len(ports), ft.minHops(src, dst)-1)
			}
			if extra != ft.extra(src, dst) {
				t.Fatalf("route(%d,%d): latency %d != minimal extra %d (fat-tree routes are always minimal)",
					src, dst, extra, ft.extra(src, dst))
			}
			descending := false
			prev := 0
			for _, tl := range ports {
				lvl := ftLevel(tl)
				if lvl == 0 {
					t.Fatalf("route(%d,%d): unclassifiable port %q", src, dst, tl.Label())
				}
				up := lvl > 0
				if up && descending {
					t.Fatalf("route(%d,%d): up transition %q after descending — up*/down* violated",
						src, dst, tl.Label())
				}
				if up && lvl <= prev {
					t.Fatalf("route(%d,%d): non-monotonic climb at %q", src, dst, tl.Label())
				}
				if !up {
					descending = true
				}
				prev = lvl
			}
		}
	}
}

// TestFatTreeAdaptiveSpraying pins the least-loaded up-link policy: two
// concurrent inter-pod flows from the same edge switch take different
// aggregation switches once the first up-link is busy.
func TestFatTreeAdaptiveSpraying(t *testing.T) {
	ft := newFatTree(4, 100)
	ports1, _, _, _ := ft.route(nil, 0, 0, 8)
	for _, tl := range ports1 {
		sim.ReserveMulti(0, 1000, tl)
	}
	ports2, _, _, _ := ft.route(nil, 0, 0, 8)
	if ports1[0] == ports2[0] {
		t.Fatalf("second flow reused busy up-link %q instead of spraying", ports1[0].Label())
	}
}

func TestDragonflyAutoSize(t *testing.T) {
	// Balanced auto-size: smallest p with (2p*p+1)*2p*p >= nodes.
	cases := []struct{ nodes, wantP int }{
		{1, 1}, {6, 1}, {7, 2}, {72, 2}, {73, 3}, {1024, 4},
	}
	for _, tc := range cases {
		f := New(Config{Nodes: tc.nodes, GPUsPerNode: 1, NICsPerNode: 1,
			Topology: TopologyConfig{Kind: TopoDragonfly}})
		tc2 := f.Topology()
		if tc2.DragonflyHosts != tc.wantP || tc2.DragonflyRouters != 2*tc.wantP || tc2.DragonflyGlobal != tc.wantP {
			t.Errorf("nodes=%d: auto (p,a,h) = (%d,%d,%d), want (%d,%d,%d)", tc.nodes,
				tc2.DragonflyHosts, tc2.DragonflyRouters, tc2.DragonflyGlobal,
				tc.wantP, 2*tc.wantP, tc.wantP)
		}
	}
	// An explicit configuration too small for the cluster must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("dragonfly p=1,a=1,h=1 with 3 nodes did not panic")
			}
		}()
		New(Config{Nodes: 3, GPUsPerNode: 1, NICsPerNode: 1,
			Topology: TopologyConfig{Kind: TopoDragonfly, DragonflyHosts: 1, DragonflyRouters: 1, DragonflyGlobal: 1}})
	}()
}

// dfGlobals counts the global-channel ports on a route.
func dfGlobals(ports []*sim.Timeline) int {
	n := 0
	for _, tl := range ports {
		if strings.Contains(tl.Label(), ".g") {
			n++
		}
	}
	return n
}

// TestDragonflyMinimalRouting checks every node pair of a small dragonfly on
// an idle network: minimal routes only (no Valiant under zero load), at most
// one global channel, hop count matching minHops, and minHops within the
// theoretical [1, 4] band (router - gateway - global - entry - router).
func TestDragonflyMinimalRouting(t *testing.T) {
	// p=2, a=4, h=2: 9 groups max; 40 nodes -> 5 groups.
	df := newDragonfly(40, 2, 4, 2, 100)
	for src := 0; src < 40; src++ {
		for dst := 0; dst < 40; dst++ {
			if src == dst {
				continue
			}
			mh := df.minHops(src, dst)
			if mh < 1 || mh > 4 {
				t.Fatalf("minHops(%d,%d) = %d outside [1,4]", src, dst, mh)
			}
			sameGroup := df.group(df.router(src)) == df.group(df.router(dst))
			if sameGroup && mh > 2 {
				t.Fatalf("minHops(%d,%d) = %d within a group, want <= 2", src, dst, mh)
			}
			ports, extra, _, _ := df.route(nil, 0, src, dst)
			if extra != df.extra(src, dst) {
				t.Fatalf("route(%d,%d) on idle network took %d, want minimal %d",
					src, dst, extra, df.extra(src, dst))
			}
			g := dfGlobals(ports)
			if sameGroup && g != 0 {
				t.Fatalf("route(%d,%d) within a group used %d global channels", src, dst, g)
			}
			if !sameGroup && g != 1 {
				t.Fatalf("minimal route(%d,%d) used %d global channels, want 1", src, dst, g)
			}
		}
	}
}

// TestDragonflyValiantEscape congests the minimal global channel and checks
// the UGAL escape: the route detours through an intermediate group (two
// global channels), the intermediate group is neither the source's nor the
// destination's, and the choice is a pure function of (src, dst, time), so
// a run replays identically.
func TestDragonflyValiantEscape(t *testing.T) {
	df := newDragonfly(40, 2, 4, 2, 100)
	src, dst := 0, 39 // group 0 -> group 4
	gwMin, portMin := df.gateway(0, 4)
	sim.ReserveMulti(0, sim.Duration(1)*sim.Millisecond, df.globalOut[gwMin][portMin])

	ports, extra, _, _ := df.route(nil, 0, src, dst)
	if g := dfGlobals(ports); g != 2 {
		t.Fatalf("congested route used %d global channels, want 2 (Valiant)", g)
	}
	if extra <= df.extra(src, dst) {
		t.Fatalf("Valiant route latency %d not above minimal %d", extra, df.extra(src, dst))
	}
	ports2, _, _, _ := df.route(nil, 0, src, dst)
	if len(ports) != len(ports2) {
		t.Fatalf("Valiant route not deterministic: %d vs %d ports", len(ports), len(ports2))
	}
	for i := range ports {
		if ports[i] != ports2[i] {
			t.Fatalf("Valiant route not deterministic at hop %d", i)
		}
	}

	// The intermediate group avoids source and destination groups for every
	// (src, dst, at) combination.
	for s := 0; s < 40; s++ {
		for d := 0; d < 40; d++ {
			gs, gd := df.group(df.router(s)), df.group(df.router(d))
			if gs == gd {
				continue
			}
			for _, at := range []sim.Time{0, 1, 12345, 987654321} {
				via := df.valiantGroup(s, d, at, gs, gd)
				if via == gs || via == gd || via < 0 || via >= df.groups {
					t.Fatalf("valiantGroup(%d,%d,at=%d) = %d with gs=%d gd=%d", s, d, at, via, gs, gd)
				}
			}
		}
	}
}

// TestTopologyStatsSwitches checks that switch port busy time shows up in
// the topology's switch ports after coupled transfers route through the
// fabric.
func TestTopologyStatsSwitches(t *testing.T) {
	f := New(Config{Nodes: 16, GPUsPerNode: 1, NICsPerNode: 1,
		Topology: TopologyConfig{Kind: TopoFatTree, FatTreeArity: 4}})
	cost := LinkCost{Latency: 100, BytesPerSec: 1e9}
	f.Transfer(0, 0, 8, 1<<20, cost) // inter-pod: books 4 switch ports
	ports, busy := 0, 0
	f.topo.ports(func(tl *sim.Timeline) {
		ports++
		if tl.BusySum() > 0 {
			busy++
		}
	})
	if ports == 0 {
		t.Fatalf("no switch ports")
	}
	if busy != 4 {
		t.Fatalf("%d switch ports busy after one inter-pod transfer, want 4", busy)
	}
}
