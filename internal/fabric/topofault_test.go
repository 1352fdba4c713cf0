package fabric

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// ftCheckLive maps a fat-tree port timeline label back to the switches and
// the inter-switch link it represents and fails the test if any of them is
// dead at time at — the route-liveness property: adaptive routing must never
// book a crashed element.
func ftCheckLive(t *testing.T, ft *fatTree, tl *sim.Timeline, at sim.Time) {
	t.Helper()
	l := tl.Label()
	var x, y int
	switch {
	case scan2(l, "ft.edge%d.up%d", &x, &y):
		agg := (x/ft.half)*ft.half + y
		if !ft.edgeLive(x, at) || !ft.aggLive(agg, at) ||
			linkDeadAt(ft.deadLink, ft.edgeID(x), ft.aggID(agg), at) {
			t.Errorf("route books dead element via %s at %v", l, at)
		}
	case scan2(l, "ft.agg%d.up%d", &x, &y):
		core := (x%ft.half)*ft.half + y
		if !ft.aggLive(x, at) || !ft.coreLive(core, at) ||
			linkDeadAt(ft.deadLink, ft.aggID(x), ft.coreID(core), at) {
			t.Errorf("route books dead element via %s at %v", l, at)
		}
	case scan2(l, "ft.agg%d.down%d", &x, &y):
		edge := (x/ft.half)*ft.half + y
		if !ft.aggLive(x, at) || !ft.edgeLive(edge, at) ||
			linkDeadAt(ft.deadLink, ft.aggID(x), ft.edgeID(edge), at) {
			t.Errorf("route books dead element via %s at %v", l, at)
		}
	case scan2(l, "ft.core%d.down%d", &x, &y):
		agg := y*ft.half + x/ft.half
		if !ft.coreLive(x, at) || !ft.aggLive(agg, at) ||
			linkDeadAt(ft.deadLink, ft.coreID(x), ft.aggID(agg), at) {
			t.Errorf("route books dead element via %s at %v", l, at)
		}
	default:
		t.Fatalf("unrecognized fat-tree port label %q", l)
	}
}

func scan2(s, format string, a, b *int) bool {
	n, err := fmt.Sscanf(s, format, a, b)
	return err == nil && n == 2
}

// TestFatTreeRouteAvoidsDeadElements crashes an aggregation switch and downs
// an edge-aggregation link of a k=4 fat-tree, then routes every node pair at
// times before and after the faults: every booked port must map to live
// elements, reachable pairs keep their minimal hop latency, and affected
// pairs report the detour.
func TestFatTreeRouteAvoidsDeadElements(t *testing.T) {
	const nodes = 16
	f := New(Config{Nodes: nodes, GPUsPerNode: 1, NICsPerNode: 1,
		Topology: TopologyConfig{Kind: TopoFatTree, FatTreeArity: 4, hopLatency: 100}})
	const crashAt, linkAt = sim.Time(1000), sim.Time(2000)
	// Both faults sit at aggregation position 0: cross-pod routes climb
	// through one position end to end, so pairs spanning the two faulty pods
	// keep position 1 alive (killing different positions would be a real
	// partition — pinned separately below).
	f.CrashSwitch(FatTreeAggSwitch(4, 0, 0), crashAt) // agg 0 of pod 0 (global id 8)
	f.DownInterLink(4, FatTreeAggSwitch(4, 2, 0), linkAt)
	ft := f.topo.(*fatTree)

	rerouted := 0
	for _, at := range []sim.Time{0, crashAt, linkAt, linkAt * 2} {
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				if src == dst {
					continue
				}
				ports, extra, detour, err := ft.route(nil, at, src, dst)
				if err != nil {
					t.Fatalf("route(%d->%d at %v): unexpected partition: %v", src, dst, at, err)
				}
				for _, tl := range ports {
					ftCheckLive(t, ft, tl, at)
				}
				// A reachable fat-tree pair never loses its minimal length:
				// path diversity is in the middle of the up*/down* route.
				if want := ft.extra(src, dst); extra != want {
					t.Errorf("route(%d->%d at %v) extra %v, want minimal %v", src, dst, at, extra, want)
				}
				if at == 0 && detour {
					t.Errorf("detour reported before any fault is active (%d->%d)", src, dst)
				}
				if detour {
					rerouted++
				}
			}
		}
	}
	if rerouted == 0 {
		t.Fatalf("no route reported a detour despite a crashed aggregation switch")
	}
}

// TestFatTreeRealPartitionIsTyped exhausts a k=4 tree's path diversity on
// purpose — a crashed aggregation at position 0 of one pod plus a dead
// edge-agg link at position 1 of another blocks both climb positions for
// pairs spanning them — and asserts the fabric reports it as a typed
// *UnreachableError rather than routing through a dead element, while pairs
// with a live position still route.
func TestFatTreeRealPartitionIsTyped(t *testing.T) {
	const nodes = 16
	f := New(Config{Nodes: nodes, GPUsPerNode: 1, NICsPerNode: 1,
		Topology: TopologyConfig{Kind: TopoFatTree, FatTreeArity: 4, hopLatency: 100}})
	f.CrashSwitch(FatTreeAggSwitch(4, 0, 0), 0)
	f.DownInterLink(4, FatTreeAggSwitch(4, 2, 1), 0) // edge 4 serves nodes 8, 9
	ft := f.topo.(*fatTree)

	for src := 0; src < 4; src++ { // pod 0
		for _, dst := range []int{8, 9} { // edge 4 of pod 2
			_, _, _, err := ft.route(nil, 0, src, dst)
			var ue *UnreachableError
			if !errors.As(err, &ue) {
				t.Errorf("route(%d->%d): want UnreachableError, got %v", src, dst, err)
			}
		}
		// Nodes 10, 11 sit on edge 5 of the same pod: position 1 is intact
		// on their edge, so they stay reachable via the detour.
		for _, dst := range []int{10, 11} {
			_, _, detour, err := ft.route(nil, 0, src, dst)
			if err != nil || !detour {
				t.Errorf("route(%d->%d) = detour %v, err %v; want live detour", src, dst, detour, err)
			}
		}
	}
}

// TestDragonflyRouteAvoidsDeadChannel downs the single global channel between
// two groups of a 4-group dragonfly: affected cross-group routes must escape
// via a Valiant intermediate group (longer, flagged as a detour) and never
// book the dead channel; a crashed router partitions exactly its own nodes.
func TestDragonflyRouteAvoidsDeadChannel(t *testing.T) {
	const nodes = 8 // p=1, a=2 -> 4 groups of 2 routers
	f := New(Config{Nodes: nodes, GPUsPerNode: 1, NICsPerNode: 1,
		Topology: TopologyConfig{Kind: TopoDragonfly,
			DragonflyHosts: 1, DragonflyRouters: 2, DragonflyGlobal: 2, hopLatency: 100}})
	const downAt = sim.Time(1000)
	f.DownInterLink(0, 2, downAt) // the group 0 <-> group 1 global channel
	df := f.topo.(*dragonfly)

	checkPorts := func(ports []*sim.Timeline, at sim.Time) {
		t.Helper()
		for _, tl := range ports {
			l := tl.Label()
			var r, q int
			switch {
			case scan2(l, "df.r%d.g%d", &r, &q):
				g := df.group(r)
				tg := (g + (r%df.a)*df.h + q + 1) % df.groups
				if !df.routerLive(r, at) || df.globalDead(g, tg, at) {
					t.Errorf("route books dead global element via %s at %v", l, at)
				}
			case scan2(l, "df.r%d.l%d", &r, &q):
				d := df.group(r)*df.a + q
				if !df.routerLive(r, at) || !df.routerLive(d, at) || df.localDead(r, d, at) {
					t.Errorf("route books dead local element via %s at %v", l, at)
				}
			default:
				t.Fatalf("unrecognized dragonfly port label %q", l)
			}
		}
	}

	rerouted := 0
	for _, at := range []sim.Time{0, downAt, downAt * 3} {
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				if src == dst {
					continue
				}
				ports, extra, detour, err := df.route(nil, at, src, dst)
				if err != nil {
					t.Fatalf("route(%d->%d at %v): unexpected partition: %v", src, dst, at, err)
				}
				checkPorts(ports, at)
				if extra < df.hop {
					t.Errorf("route(%d->%d at %v) extra %v under one switch traversal %v",
						src, dst, at, extra, df.hop)
				}
				if at == 0 && detour {
					t.Errorf("detour reported before the channel died (%d->%d)", src, dst)
				}
				if detour {
					rerouted++
					if extra <= df.extra(src, dst) {
						t.Errorf("Valiant escape %d->%d at %v not longer than minimal (%v <= %v)",
							src, dst, at, extra, df.extra(src, dst))
					}
				}
			}
		}
	}
	if rerouted == 0 {
		t.Fatalf("no route escaped via Valiant despite the dead global channel")
	}

	// A crashed router severs exactly its own node (p=1): typed unreachable
	// for pairs touching it, everything else still routes.
	f2 := New(Config{Nodes: nodes, GPUsPerNode: 1, NICsPerNode: 1,
		Topology: TopologyConfig{Kind: TopoDragonfly,
			DragonflyHosts: 1, DragonflyRouters: 2, DragonflyGlobal: 2, hopLatency: 100}})
	f2.CrashSwitch(2, 0) // router 2 serves node 2
	df2 := f2.topo.(*dragonfly)
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if src == dst {
				continue
			}
			_, _, _, err := df2.route(nil, 0, src, dst)
			var ue *UnreachableError
			touches := src == 2 || dst == 2
			if touches && !errors.As(err, &ue) {
				t.Errorf("route(%d->%d) with router 2 dead: want UnreachableError, got %v", src, dst, err)
			}
			if !touches && err != nil {
				t.Errorf("route(%d->%d) with router 2 dead: unexpected error %v", src, dst, err)
			}
		}
	}
}

// TestTopologyFaultValidation pins the construction-time checks: switch ids
// and link pairs that do not name real elements panic immediately instead of
// silently corrupting the fault tables, and the flat topology rejects
// switch faults outright.
func TestTopologyFaultValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}

	ftf := func() *Fabric {
		return New(Config{Nodes: 16, GPUsPerNode: 1, NICsPerNode: 1,
			Topology: TopologyConfig{Kind: TopoFatTree, FatTreeArity: 4}})
	}
	mustPanic("fat-tree switch id out of range", func() { ftf().CrashSwitch(20, 0) })
	mustPanic("fat-tree negative switch id", func() { ftf().CrashSwitch(-1, 0) })
	// Edge 0 is in pod 0; agg FatTreeAggSwitch(4, 2, 0) is in pod 2.
	mustPanic("fat-tree cross-pod edge-agg link", func() {
		ftf().DownInterLink(0, FatTreeAggSwitch(4, 2, 0), 0)
	})
	// Agg position 0 reaches cores [0, 2); core id 2*8+3 is core 3.
	mustPanic("fat-tree nonexistent agg-core link", func() {
		ftf().DownInterLink(FatTreeAggSwitch(4, 0, 0), 2*8+3, 0)
	})
	mustPanic("fat-tree edge-edge pair", func() { ftf().DownInterLink(0, 1, 0) })
	// Valid installs must not panic.
	ok := ftf()
	ok.CrashSwitch(FatTreeAggSwitch(4, 1, 1), 0)
	ok.DownInterLink(0, FatTreeAggSwitch(4, 0, 1), 0)
	ok.DownInterLink(FatTreeAggSwitch(4, 0, 0), 2*8+1, 0)

	dff := func() *Fabric {
		return New(Config{Nodes: 8, GPUsPerNode: 1, NICsPerNode: 1,
			Topology: TopologyConfig{Kind: TopoDragonfly,
				DragonflyHosts: 1, DragonflyRouters: 2, DragonflyGlobal: 2}})
	}
	mustPanic("dragonfly router id out of range", func() { dff().CrashSwitch(8, 0) })
	mustPanic("dragonfly self link", func() { dff().DownInterLink(3, 3, 0) })
	okdf := dff()
	okdf.CrashSwitch(7, 0)
	okdf.DownInterLink(0, 1, 0) // local
	okdf.DownInterLink(1, 6, 0) // global, group 0 <-> group 3

	flat := New(Config{Nodes: 2, GPUsPerNode: 1, NICsPerNode: 1})
	mustPanic("flat CrashSwitch", func() { flat.CrashSwitch(0, 0) })
	mustPanic("flat DownInterLink", func() { flat.DownInterLink(0, 1, 0) })
}

// TestUnreachableErrorMessage pins the typed partition error's rendering so
// chaos logs stay greppable.
func TestUnreachableErrorMessage(t *testing.T) {
	err := unreachableErr(3, 7, sim.Time(1000))
	var ue *UnreachableError
	if !errors.As(err, &ue) || ue.srcNode != 3 || ue.dstNode != 7 {
		t.Fatalf("unreachableErr fields: %+v", err)
	}
	if !strings.Contains(err.Error(), "network partition") {
		t.Fatalf("error message %q lacks the partition marker", err.Error())
	}
}
