package fabric

// Topology hard faults: crashed switches and dead inter-switch links.
//
// Dead elements are installed before the run starts (faults.ApplyHardFaults)
// and the tables are immutable afterwards, so the liveness checks on the
// routing paths are pure reads and a pure function of (srcNode, dstNode, at).
//
// Switch ids (CrashSwitch, DownInterLink):
//
//   - fat-tree: edges [0, E), aggregations [E, 2E), cores [2E, 2E+(k/2)^2),
//     with E = k*(k/2) edge switches. Pod P owns edges [P*k/2, (P+1)*k/2)
//     and the aggregations at the same positions.
//   - dragonfly: routers [0, groups*a). A same-group pair names their local
//     link; a cross-group pair names the single palmtree global channel
//     between the two groups (whichever routers are given).
//
// Reachability semantics: a dead element only removes route candidates;
// adaptive routing steers the surviving traffic around it and counts the
// detour as a failover (Fabric.FailoverTransfers). Only when a node pair has
// no live route left — a dead edge switch or endpoint router, or a fault set
// exhausting the path diversity — does the fabric raise *UnreachableError,
// the typed signal of a real partition.

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// UnreachableError reports a transfer between two nodes with no live route
// left in the switch fabric — a real partition, as opposed to a dead route
// or switch that adaptive routing can steer around.
type UnreachableError struct {
	srcNode, dstNode int
	at               sim.Time
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("fabric: no live route from node %d to node %d at %v (network partition)",
		e.srcNode, e.dstNode, e.at)
}

func unreachableErr(srcNode, dstNode int, at sim.Time) error {
	return &UnreachableError{srcNode: srcNode, dstNode: dstNode, at: at}
}

// aliveForever marks a never-crashed element in the dead-time tables.
const aliveForever = sim.Time(math.MaxInt64)

// markDead records element i of an n-element class as dead from at onward,
// allocating the table on first use; the earliest crash wins.
func markDead(d *[]sim.Time, n, i int, at sim.Time) {
	if *d == nil {
		*d = make([]sim.Time, n)
		for j := range *d {
			(*d)[j] = aliveForever
		}
	}
	if at < (*d)[i] {
		(*d)[i] = at
	}
}

func deadAt(d []sim.Time, i int, at sim.Time) bool {
	return d != nil && at >= d[i]
}

// markLinkDead records the unordered (a, b) link as dead from at onward.
func markLinkDead(m *map[[2]int]sim.Time, a, b int, at sim.Time) {
	if a > b {
		a, b = b, a
	}
	if *m == nil {
		*m = make(map[[2]int]sim.Time)
	}
	key := [2]int{a, b}
	if t, ok := (*m)[key]; !ok || at < t {
		(*m)[key] = at
	}
}

func linkDeadAt(m map[[2]int]sim.Time, a, b int, at sim.Time) bool {
	if m == nil {
		return false
	}
	if a > b {
		a, b = b, a
	}
	t, ok := m[[2]int{a, b}]
	return ok && at >= t
}

// CrashSwitch kills one switch of the inter-node topology from virtual time
// at onward (see the switch-id numbering above). Panics on the flat topology
// or an out-of-range id. Must be called before the run starts.
func (f *Fabric) CrashSwitch(sw int, at sim.Time) {
	if f.topo == nil {
		panic("fabric: CrashSwitch on the flat topology (it has no switches)")
	}
	f.topo.crashSwitch(sw, at)
}

// DownInterLink kills the link between two adjacent switches from virtual
// time at onward (see the switch-id numbering above). Panics on the flat
// topology or when the pair is not adjacent. Must be called before the run
// starts.
func (f *Fabric) DownInterLink(a, b int, at sim.Time) {
	if f.topo == nil {
		panic("fabric: DownInterLink on the flat topology (it has no switches)")
	}
	f.topo.downInterLink(a, b, at)
}

// ResolveTopology resolves the auto-sized parameters of a topology config
// for a cluster of the given node count without building any port state:
// the sizing New applies, exposed so fault generators (internal/faults) can
// target concrete switch ids before the fabric exists, and so admission
// (core.Config.Validate, spec.Spec.Validate) can refuse a network too small
// for its cluster. Auto-sizing picks the smallest even fat-tree arity whose
// k^3/4 nodes cover the cluster, or the smallest balanced (a=2p, h=p)
// dragonfly whose a*h+1 groups do.
func ResolveTopology(tc TopologyConfig, nodes int) (TopologyConfig, error) {
	if err := tc.check(); err != nil {
		return tc, err
	}
	switch tc.Kind {
	case TopoFatTree:
		k := tc.FatTreeArity
		if k == 0 {
			for k = 2; k*k*k/4 < nodes; k += 2 {
			}
		}
		if k*k*k/4 < nodes {
			return tc, fmt.Errorf("fabric: %d-ary fat-tree holds %d nodes, cluster has %d (raise the arity or auto-size with 0)",
				k, k*k*k/4, nodes)
		}
		tc.FatTreeArity = k
	case TopoDragonfly:
		p, a, h := tc.DragonflyHosts, tc.DragonflyRouters, tc.DragonflyGlobal
		if p == 0 {
			for p = 1; (2*p*p+1)*2*p*p < nodes; p++ {
			}
			a, h = 2*p, p
		}
		if dragonflyGroups(nodes, p, a) > a*h+1 {
			return tc, fmt.Errorf("fabric: dragonfly p=%d a=%d h=%d holds at most %d nodes (%d groups), cluster has %d",
				p, a, h, (a*h+1)*a*p, a*h+1, nodes)
		}
		tc.DragonflyHosts, tc.DragonflyRouters, tc.DragonflyGlobal = p, a, h
	default:
		return tc, nil
	}
	if tc.hopLatency <= 0 {
		tc.hopLatency = defaultHopLatency
	}
	return tc, nil
}

// FatTreeAggSwitch returns the global switch id of the aggregation switch at
// the given position of a pod in a k-ary fat-tree (see the numbering above).
func FatTreeAggSwitch(k, pod, pos int) int {
	half := k / 2
	return k*half + pod*half + pos
}

// --- fat-tree fault state ---

// Global switch ids: edges [0, E), aggregations [E, 2E), cores
// [2E, 2E+half^2), with E = k*half edge switches.
func (t *fatTree) numEdges() int    { return t.k * t.half }
func (t *fatTree) edgeID(e int) int { return e }
func (t *fatTree) aggID(g int) int  { return t.numEdges() + g }
func (t *fatTree) coreID(c int) int { return 2*t.numEdges() + c }

func (t *fatTree) edgeLive(e int, at sim.Time) bool { return !deadAt(t.edgeDead, e, at) }
func (t *fatTree) aggLive(g int, at sim.Time) bool  { return !deadAt(t.aggDead, g, at) }
func (t *fatTree) coreLive(c int, at sim.Time) bool { return !deadAt(t.coreDead, c, at) }

func (t *fatTree) crashSwitch(sw int, at sim.Time) {
	e := t.numEdges()
	switch {
	case sw >= 0 && sw < e:
		markDead(&t.edgeDead, e, sw, at)
	case sw < 2*e:
		markDead(&t.aggDead, e, sw-e, at)
	case sw < 2*e+t.half*t.half:
		markDead(&t.coreDead, t.half*t.half, sw-2*e, at)
	default:
		panic(fmt.Sprintf("fabric: fat-tree switch id %d outside [0, %d) (%d edges, %d aggs, %d cores)",
			sw, 2*e+t.half*t.half, e, e, t.half*t.half))
	}
}

func (t *fatTree) downInterLink(a, b int, at sim.Time) {
	e := t.numEdges()
	if a > b {
		a, b = b, a
	}
	switch {
	case a >= 0 && a < e && b >= e && b < 2*e:
		// Edge <-> aggregation: the pair must share a pod.
		if a/t.half != (b-e)/t.half {
			panic(fmt.Sprintf("fabric: fat-tree link %d-%d joins switches of different pods", a, b))
		}
	case a >= e && a < 2*e && b >= 2*e && b < 2*e+t.half*t.half:
		// Aggregation <-> core: agg position p reaches cores [p*half, (p+1)*half).
		if pos := (a - e) % t.half; pos != (b-2*e)/t.half {
			panic(fmt.Sprintf("fabric: fat-tree link %d-%d does not exist (agg position %d reaches cores [%d, %d))",
				a, b, pos, 2*e+pos*t.half, 2*e+(pos+1)*t.half))
		}
	default:
		panic(fmt.Sprintf("fabric: fat-tree pair (%d, %d) is not an edge-agg or agg-core adjacency", a, b))
	}
	markLinkDead(&t.deadLink, a, b, at)
}

// podAggOK reports whether aggregation position a of pod sp can carry a
// same-pod route between edges se and de at time at.
func (t *fatTree) podAggOK(se, de, sp, a int, at sim.Time) bool {
	g := sp*t.half + a
	return t.aggLive(g, at) &&
		!linkDeadAt(t.deadLink, t.edgeID(se), t.aggID(g), at) &&
		!linkDeadAt(t.deadLink, t.aggID(g), t.edgeID(de), at)
}

// upOK reports whether the aggregation pair at position a of pods sp and dp
// is live for a cross-pod route, including both edge links.
func (t *fatTree) upOK(se, de, sp, dp, a int, at sim.Time) bool {
	sa, da := sp*t.half+a, dp*t.half+a
	return t.aggLive(sa, at) && t.aggLive(da, at) &&
		!linkDeadAt(t.deadLink, t.edgeID(se), t.aggID(sa), at) &&
		!linkDeadAt(t.deadLink, t.aggID(da), t.edgeID(de), at)
}

// coreOK reports whether core j of aggregation position a is live with both
// of its agg links, for a cross-pod route over aggregations sa and da.
func (t *fatTree) coreOK(sa, da, a, j int, at sim.Time) bool {
	core := a*t.half + j
	return t.coreLive(core, at) &&
		!linkDeadAt(t.deadLink, t.aggID(sa), t.coreID(core), at) &&
		!linkDeadAt(t.deadLink, t.coreID(core), t.aggID(da), at)
}

// --- dragonfly fault state ---

func (t *dragonfly) routerLive(r int, at sim.Time) bool { return !deadAt(t.routerDead, r, at) }

func (t *dragonfly) localDead(x, y int, at sim.Time) bool {
	return linkDeadAt(t.deadLocal, x, y, at)
}

func (t *dragonfly) globalDead(g1, g2 int, at sim.Time) bool {
	return linkDeadAt(t.deadGlobal, g1, g2, at)
}

func (t *dragonfly) crashSwitch(sw int, at sim.Time) {
	if sw < 0 || sw >= t.groups*t.a {
		panic(fmt.Sprintf("fabric: dragonfly router id %d outside [0, %d)", sw, t.groups*t.a))
	}
	markDead(&t.routerDead, t.groups*t.a, sw, at)
}

func (t *dragonfly) downInterLink(a, b int, at sim.Time) {
	n := t.groups * t.a
	if a < 0 || a >= n || b < 0 || b >= n || a == b {
		panic(fmt.Sprintf("fabric: dragonfly router pair (%d, %d) outside [0, %d) or equal", a, b, n))
	}
	if t.group(a) == t.group(b) {
		markLinkDead(&t.deadLocal, a, b, at)
		return
	}
	// Every distinct group pair owns exactly one palmtree global channel
	// (groups <= a*h+1), so any cross-group router pair names it; the
	// channel dies, whichever routers were given.
	markLinkDead(&t.deadGlobal, t.group(a), t.group(b), at)
}

// legOK reports whether the global leg from router cur toward group tg is
// fully live at time at: the gateway router, cur's local link to it (when
// distinct), the global channel, and the entry router of tg.
func (t *dragonfly) legOK(cur, tg int, at sim.Time) bool {
	g := t.group(cur)
	gw, _ := t.gateway(g, tg)
	if !t.routerLive(gw, at) || t.globalDead(g, tg, at) {
		return false
	}
	if gw != cur && t.localDead(cur, gw, at) {
		return false
	}
	entry, _ := t.gateway(tg, g)
	return t.routerLive(entry, at)
}

// minimalOK reports whether the minimal route rs -> gd -> rd is fully live.
func (t *dragonfly) minimalOK(rs, rd, gd int, at sim.Time) bool {
	if !t.legOK(rs, gd, at) {
		return false
	}
	entry, _ := t.gateway(gd, t.group(rs))
	return entry == rd || !t.localDead(entry, rd, at)
}

// valiantOK reports whether the Valiant route rs -> via -> gd -> rd is fully
// live.
func (t *dragonfly) valiantOK(rs, rd, via, gd int, at sim.Time) bool {
	if !t.legOK(rs, via, at) {
		return false
	}
	entry1, _ := t.gateway(via, t.group(rs))
	if !t.legOK(entry1, gd, at) {
		return false
	}
	entry2, _ := t.gateway(gd, via)
	return entry2 == rd || !t.localDead(entry2, rd, at)
}

// feasibleVia scans for a live Valiant intermediate group, starting at the
// hash-chosen group so healthy runs keep their original pick and faulty runs
// stay deterministic (the scan order is a pure function of (src, dst, at)).
// Returns -1 when no intermediate group is fully live.
func (t *dragonfly) feasibleVia(src, dst int, at sim.Time, gs, gd, rs, rd int) int {
	if t.groups <= 2 {
		return -1
	}
	start := t.valiantGroup(src, dst, at, gs, gd)
	for i := 0; i < t.groups; i++ {
		v := (start + i) % t.groups
		if v == gs || v == gd {
			continue
		}
		if t.valiantOK(rs, rd, v, gd, at) {
			return v
		}
	}
	return -1
}
