package fabric

// Pluggable inter-node topologies. The flat model (the paper's: NIC egress
// straight to NIC ingress) remains the default; fat-tree and dragonfly add
// a switch fabric between the NICs.
//
// Inter-node transfers (Fabric.Transfer) book every switch output port on
// the adaptive route via sim.ReserveMulti, so switch contention shapes
// timing and the adaptive policies (least-loaded up-link on the fat-tree,
// UGAL-style minimal-vs-Valiant on the dragonfly) react to port occupancy.
//
// Per-topology state is O(switches x radix) port timelines — O(nodes) for
// both topologies — never O(node pairs): routes are computed arithmetically
// per transfer and no routing tables are materialized, which is what lets a
// modeled 4096-rank cell fit in memory.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// TopologyKind selects the inter-node network model.
type TopologyKind int

const (
	// TopoFlat is the paper's single-hop network: NIC egress to NIC
	// ingress with nothing in between. The default.
	TopoFlat TopologyKind = iota
	// TopoFatTree is a three-level k-ary fat-tree: k pods of k/2 edge and
	// k/2 aggregation switches plus (k/2)^2 cores, holding k^3/4 nodes,
	// routed up*/down* with adaptive least-loaded up-link selection.
	TopoFatTree
	// TopoDragonfly is a dragonfly of router groups (p nodes per router,
	// a routers per group, h global links per router, at most a*h+1
	// groups) with minimal routing and a UGAL-style adaptive escape to
	// Valiant non-minimal routes through an intermediate group.
	TopoDragonfly
)

func (k TopologyKind) String() string {
	switch k {
	case TopoFlat:
		return "flat"
	case TopoFatTree:
		return "fattree"
	case TopoDragonfly:
		return "dragonfly"
	default:
		return fmt.Sprintf("TopologyKind(%d)", int(k))
	}
}

// defaultHopLatency is the per-switch traversal latency applied when a
// TopologyConfig leaves hopLatency unset: the port-to-port latency class of
// a modern HPC switch (Slingshot / InfiniBand).
const defaultHopLatency = 200 * sim.Nanosecond

// TopologyConfig selects and sizes the inter-node topology. The zero value
// is the flat single-hop network.
type TopologyConfig struct {
	Kind TopologyKind

	// FatTreeArity is the switch arity k of the fat-tree (even, >= 2);
	// 0 auto-sizes the smallest even k whose k^3/4 capacity covers the
	// cluster. New resolves the chosen value back into Fabric.Config.
	FatTreeArity int

	// DragonflyHosts (p), DragonflyRouters (a), and DragonflyGlobal (h)
	// size the dragonfly. All-zero auto-sizes a balanced a=2p, h=p
	// configuration covering the cluster.
	DragonflyHosts, DragonflyRouters, DragonflyGlobal int

	// hopLatency is the per-switch traversal latency; 0 selects
	// defaultHopLatency.
	hopLatency sim.Duration
}

// Describe renders the resolved topology for reports and benchmark JSON:
// "flat", "fattree(k=16)", "dragonfly(p=4,a=8,h=4)".
func (tc TopologyConfig) Describe() string {
	switch tc.Kind {
	case TopoFatTree:
		return fmt.Sprintf("fattree(k=%d)", tc.FatTreeArity)
	case TopoDragonfly:
		return fmt.Sprintf("dragonfly(p=%d,a=%d,h=%d)",
			tc.DragonflyHosts, tc.DragonflyRouters, tc.DragonflyGlobal)
	default:
		return tc.Kind.String()
	}
}

// maxTopologyParam bounds every explicit topology parameter. The largest
// admitted cell (4096 ranks, 1024 nodes at 4 GPUs per node) auto-sizes to a
// fat-tree k=16 or a dragonfly p=4,a=8,h=4; 32 still admits an explicit
// fat-tree of 8192 nodes, and a k=32 fat-tree's 32k port timelines cost
// about 3 MiB to build (TestLargestTopologyCost; k=64 costs 25 MiB).
const maxTopologyParam = 32

// ParseTopology parses a CLI topology spec: "flat", "fattree" or
// "fattree:<k>", "dragonfly" or "dragonfly:<p>,<a>,<h>". It refuses
// parameters no cluster can build (check); whether a valid network holds a
// given cluster is ResolveTopology's question.
func ParseTopology(s string) (TopologyConfig, error) {
	var tc TopologyConfig
	name, arg, hasArg := strings.Cut(s, ":")
	switch name {
	case "", "flat":
		if hasArg {
			return tc, fmt.Errorf("fabric: the flat topology takes no parameters (got %q)", s)
		}
	case "fattree", "fat-tree":
		tc.Kind = TopoFatTree
		if hasArg {
			k, err := strconv.Atoi(arg)
			if err != nil {
				return tc, fmt.Errorf("fabric: bad fat-tree arity %q", arg)
			}
			tc.FatTreeArity = k
		}
	case "dragonfly":
		tc.Kind = TopoDragonfly
		if hasArg {
			parts := strings.Split(arg, ",")
			if len(parts) != 3 {
				return tc, fmt.Errorf("fabric: dragonfly wants p,a,h (got %q)", arg)
			}
			vals := make([]int, 3)
			for i, p := range parts {
				v, err := strconv.Atoi(strings.TrimSpace(p))
				if err != nil {
					return tc, fmt.Errorf("fabric: bad dragonfly parameter %q", p)
				}
				vals[i] = v
			}
			tc.DragonflyHosts, tc.DragonflyRouters, tc.DragonflyGlobal = vals[0], vals[1], vals[2]
		}
	default:
		return tc, fmt.Errorf("fabric: unknown topology %q (flat|fattree[:k]|dragonfly[:p,a,h])", s)
	}
	return tc, tc.check()
}

// check refuses parameters no cluster can build: a fat-tree arity that is
// odd or outside [2, maxTopologyParam], dragonfly parameters outside
// [1, maxTopologyParam]. All-zero parameters auto-size.
func (tc TopologyConfig) check() error {
	in := func(v int) bool { return v >= 1 && v <= maxTopologyParam }
	switch tc.Kind {
	case TopoFlat:
	case TopoFatTree:
		if k := tc.FatTreeArity; k != 0 && (!in(k) || k%2 != 0) {
			return fmt.Errorf("fabric: fat-tree arity %d must be even and in [2, %d]", k, maxTopologyParam)
		}
	case TopoDragonfly:
		p, a, h := tc.DragonflyHosts, tc.DragonflyRouters, tc.DragonflyGlobal
		if (p != 0 || a != 0 || h != 0) && !(in(p) && in(a) && in(h)) {
			return fmt.Errorf("fabric: dragonfly p=%d a=%d h=%d: each must be in [1, %d]", p, a, h, maxTopologyParam)
		}
	default:
		return fmt.Errorf("fabric: unknown topology kind %d", int(tc.Kind))
	}
	return nil
}

// topology is the internal switch-fabric abstraction behind Config.Topology.
type topology interface {
	// route appends the switch output-port timelines of the adaptive route
	// between two distinct nodes to ports and returns the route's switch
	// latency, whether dead elements forced a detour, and a non-nil
	// *UnreachableError when every live route is gone (a real partition).
	// It consults and mutates port state, so it runs on the engine's
	// goroutine only.
	route(ports []*sim.Timeline, at sim.Time, srcNode, dstNode int) ([]*sim.Timeline, sim.Duration, bool, error)
	// extra is the deterministic minimal healthy-route switch latency
	// between two distinct nodes: the wire time a control envelope
	// (rendezvous RTS/CTS) pays on top of the link latency.
	extra(srcNode, dstNode int) sim.Duration
	// ports calls fn for every switch output-port timeline in a fixed
	// deterministic order (stats and occupancy reporting).
	ports(fn func(*sim.Timeline))
	// crashSwitch kills one switch from time at onward; panics on an
	// out-of-range id (topofault.go documents each topology's numbering).
	crashSwitch(sw int, at sim.Time)
	// downInterLink kills the link between two adjacent switches from time
	// at onward; panics when the ids are not adjacent in this topology.
	downInterLink(a, b int, at sim.Time)
}

// buildTopology instantiates cfg.Topology for a cluster, resolving
// auto-sized parameters back into the config. A network that cannot hold
// the cluster panics: callers reach New through core.Config.Validate, which
// refuses it with ResolveTopology's error. Flat returns nil: the fabric hot
// path keeps its two-port fast route.
func buildTopology(cfg *Config) topology {
	tc, err := ResolveTopology(cfg.Topology, cfg.Nodes)
	if err != nil {
		panic(err.Error())
	}
	cfg.Topology = tc
	switch tc.Kind {
	case TopoFatTree:
		return newFatTree(tc.FatTreeArity, tc.hopLatency)
	case TopoDragonfly:
		return newDragonfly(cfg.Nodes, tc.DragonflyHosts, tc.DragonflyRouters, tc.DragonflyGlobal, tc.hopLatency)
	default:
		return nil
	}
}

// leastLoaded picks the port whose timeline frees earliest, lowest index on
// ties — the deterministic analogue of an adaptive switch spraying onto its
// least-congested candidate port.
func leastLoaded(ports []*sim.Timeline) int {
	best := 0
	for i := 1; i < len(ports); i++ {
		if ports[i].BusyUntil() < ports[best].BusyUntil() {
			best = i
		}
	}
	return best
}

// routeHash mixes the route inputs into a deterministic 64-bit value
// (splitmix64 finalizer): the randomness source of Valiant routing must be a
// pure function of (src, dst, time) so that runs replay identically.
func routeHash(a, b, c uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 + b*0xC2B2AE3D27D4EB4F + c*0x165667B19E3779F9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// --- Fat-tree ---

// fatTree is a three-level k-ary fat-tree. Nodes pack onto edge switches
// (k/2 per edge); edge switch e of pod P reaches the pod's k/2 aggregation
// switches; aggregation switch position a of every pod reaches cores
// [a*k/2, (a+1)*k/2). Only switch output ports toward the destination are
// modeled as timelines — the NIC ports of the fabric serve as the
// node<->edge links.
type fatTree struct {
	k, half int
	hop     sim.Duration

	edgeUp   [][]*sim.Timeline // [edge][a]: edge -> agg position a of its pod
	aggUp    [][]*sim.Timeline // [agg][j]: agg position a -> core a*half+j
	aggDown  [][]*sim.Timeline // [agg][e]: agg -> edge position e of its pod
	coreDown [][]*sim.Timeline // [core][pod]: core -> the pod's agg at position core/half

	// Hard-fault state, installed before the run starts (ApplyHardFaults)
	// and immutable afterwards. Nil/empty means healthy; deadAt entries of
	// aliveForever mean alive.
	edgeDead, aggDead, coreDead []sim.Time
	deadLink                    map[[2]int]sim.Time // normalized (lo, hi) global switch-id pair
}

// newFatTree builds the port state of a k-ary fat-tree (k resolved).
func newFatTree(k int, hop sim.Duration) *fatTree {
	half := k / 2
	t := &fatTree{k: k, half: half, hop: hop}
	for e := 0; e < k*half; e++ {
		up := make([]*sim.Timeline, half)
		for a := range up {
			up[a] = sim.NewTimeline(fmt.Sprintf("ft.edge%d.up%d", e, a))
		}
		t.edgeUp = append(t.edgeUp, up)
	}
	for g := 0; g < k*half; g++ {
		up := make([]*sim.Timeline, half)
		down := make([]*sim.Timeline, half)
		for j := range up {
			up[j] = sim.NewTimeline(fmt.Sprintf("ft.agg%d.up%d", g, j))
			down[j] = sim.NewTimeline(fmt.Sprintf("ft.agg%d.down%d", g, j))
		}
		t.aggUp = append(t.aggUp, up)
		t.aggDown = append(t.aggDown, down)
	}
	for c := 0; c < half*half; c++ {
		down := make([]*sim.Timeline, k)
		for pod := range down {
			down[pod] = sim.NewTimeline(fmt.Sprintf("ft.core%d.down%d", c, pod))
		}
		t.coreDown = append(t.coreDown, down)
	}
	return t
}

func (t *fatTree) edge(node int) int { return node / t.half }
func (t *fatTree) pod(node int) int  { return node / (t.half * t.half) }

func (t *fatTree) minHops(src, dst int) int {
	switch {
	case t.edge(src) == t.edge(dst):
		return 1 // the shared edge switch
	case t.pod(src) == t.pod(dst):
		return 3 // edge up, agg, edge down
	default:
		return 5 // edge, agg, core, agg, edge
	}
}

func (t *fatTree) extra(src, dst int) sim.Duration {
	return sim.Duration(t.minHops(src, dst)) * t.hop
}

// route books the adaptive up*/down* route. The up phase selects the
// least-loaded edge->agg (and agg->core) port among candidates whose
// switches and links are live at time at; once the route peaks, the down
// path is fully determined by the destination — every route strictly climbs
// then descends, the classic deadlock-freedom argument for up/down routing
// (asserted by the topology tests). With no faults installed every candidate
// is live, so the selection reduces to the original least-loaded policy and
// healthy timings are unchanged. A dead switch/link only removes candidates
// of equal hop count (the fat-tree's path diversity lives entirely in the
// middle of the route), so a reachable pair always keeps its minimal length.
func (t *fatTree) route(ports []*sim.Timeline, at sim.Time, src, dst int) ([]*sim.Timeline, sim.Duration, bool, error) {
	se, de := t.edge(src), t.edge(dst)
	if !t.edgeLive(se, at) || !t.edgeLive(de, at) {
		// A dead edge switch severs its nodes completely: a real partition.
		return ports, 0, false, unreachableErr(src, dst, at)
	}
	if se == de {
		// Same edge switch: one traversal, no contended switch port beyond
		// the NICs (the edge's node-facing ports are the NIC links).
		return ports, t.hop, false, nil
	}
	sp, dp := t.pod(src), t.pod(dst)
	rerouted := false
	if sp == dp {
		best := -1
		for a := 0; a < t.half; a++ {
			if !t.podAggOK(se, de, sp, a, at) {
				rerouted = true
				continue
			}
			if best < 0 || t.edgeUp[se][a].BusyUntil() < t.edgeUp[se][best].BusyUntil() {
				best = a
			}
		}
		if best < 0 {
			return ports, 0, false, unreachableErr(src, dst, at)
		}
		ports = append(ports, t.edgeUp[se][best], t.aggDown[sp*t.half+best][de%t.half])
		return ports, 3 * t.hop, rerouted, nil
	}
	bestA := -1
	for a := 0; a < t.half; a++ {
		if !t.upOK(se, de, sp, dp, a, at) {
			rerouted = true
			continue
		}
		sa, da := sp*t.half+a, dp*t.half+a
		feasible := false
		for j := 0; j < t.half; j++ {
			if t.coreOK(sa, da, a, j, at) {
				feasible = true
				break
			}
		}
		if !feasible {
			rerouted = true
			continue
		}
		if bestA < 0 || t.edgeUp[se][a].BusyUntil() < t.edgeUp[se][bestA].BusyUntil() {
			bestA = a
		}
	}
	if bestA < 0 {
		return ports, 0, false, unreachableErr(src, dst, at)
	}
	sa, da := sp*t.half+bestA, dp*t.half+bestA
	bestJ := -1
	for j := 0; j < t.half; j++ {
		if !t.coreOK(sa, da, bestA, j, at) {
			rerouted = true
			continue
		}
		if bestJ < 0 || t.aggUp[sa][j].BusyUntil() < t.aggUp[sa][bestJ].BusyUntil() {
			bestJ = j
		}
	}
	core := bestA*t.half + bestJ
	ports = append(ports,
		t.edgeUp[se][bestA],
		t.aggUp[sa][bestJ],
		t.coreDown[core][dp],
		t.aggDown[da][de%t.half])
	return ports, 5 * t.hop, rerouted, nil
}

func (t *fatTree) ports(fn func(*sim.Timeline)) {
	for _, group := range [][][]*sim.Timeline{t.edgeUp, t.aggUp, t.aggDown, t.coreDown} {
		for _, ps := range group {
			for _, tl := range ps {
				fn(tl)
			}
		}
	}
}

// --- Dragonfly ---

// dragonfly models groups of a routers, each serving p nodes and owning h
// global links, in the standard palmtree arrangement: global port q of
// group g (router g*a + q/h, port q%h) connects to group (g+q+1) mod
// groups, giving exactly one direct global channel per group pair.
type dragonfly struct {
	p, a, h, groups int
	hop             sim.Duration

	localOut  [][]*sim.Timeline // [router][dst router local index]; self slot nil
	globalOut [][]*sim.Timeline // [router][h]

	// Hard-fault state, installed before the run starts (ApplyHardFaults)
	// and immutable afterwards.
	routerDead []sim.Time
	deadLocal  map[[2]int]sim.Time // normalized router pair within a group
	deadGlobal map[[2]int]sim.Time // normalized group pair (the global channel)
}

// dragonflyGroups is the group count a dragonfly of a*p nodes per group
// needs for a cluster (at least one).
func dragonflyGroups(nodes, p, a int) int { return max(1, (nodes+a*p-1)/(a*p)) }

// newDragonfly builds the port state of a dragonfly (p, a, h resolved) for
// a cluster.
func newDragonfly(nodes, p, a, h int, hop sim.Duration) *dragonfly {
	groups := dragonflyGroups(nodes, p, a)
	t := &dragonfly{p: p, a: a, h: h, groups: groups, hop: hop}
	for r := 0; r < groups*a; r++ {
		lo := make([]*sim.Timeline, a)
		for d := range lo {
			if d == r%a {
				continue // no self link
			}
			lo[d] = sim.NewTimeline(fmt.Sprintf("df.r%d.l%d", r, d))
		}
		gl := make([]*sim.Timeline, h)
		for q := range gl {
			gl[q] = sim.NewTimeline(fmt.Sprintf("df.r%d.g%d", r, q))
		}
		t.localOut = append(t.localOut, lo)
		t.globalOut = append(t.globalOut, gl)
	}
	return t
}

func (t *dragonfly) router(node int) int { return node / t.p }
func (t *dragonfly) group(r int) int     { return r / t.a }

// gateway returns the router of group g owning the global link toward group
// dg, and the router-local index of that global port.
func (t *dragonfly) gateway(g, dg int) (router, port int) {
	q := (dg - g - 1 + t.groups) % t.groups
	return g*t.a + q/t.h, q % t.h
}

func (t *dragonfly) minHops(src, dst int) int {
	rs, rd := t.router(src), t.router(dst)
	if rs == rd {
		return 1
	}
	gs, gd := t.group(rs), t.group(rd)
	if gs == gd {
		return 2
	}
	hops := 2 // the two gateway routers of the global channel
	if gw, _ := t.gateway(gs, gd); gw != rs {
		hops++
	}
	if entry, _ := t.gateway(gd, gs); entry != rd {
		hops++
	}
	return hops
}

func (t *dragonfly) extra(src, dst int) sim.Duration {
	return sim.Duration(t.minHops(src, dst)) * t.hop
}

// globalLeg routes from router cur out of its group toward group tg: an
// optional local hop to the gateway, then the global channel. It returns
// the entry router inside tg and the router traversals added (gateway if
// distinct from cur, plus the entry router).
func (t *dragonfly) globalLeg(ports []*sim.Timeline, cur, tg int) ([]*sim.Timeline, int, int) {
	g := t.group(cur)
	gw, port := t.gateway(g, tg)
	hops := 1 // the entry router
	if gw != cur {
		ports = append(ports, t.localOut[cur][gw%t.a])
		hops++
	}
	ports = append(ports, t.globalOut[gw][port])
	entry, _ := t.gateway(tg, g)
	return ports, entry, hops
}

// route books the adaptive dragonfly route: minimal (at most src router ->
// gateway -> global channel -> entry -> dst router, one global hop), or —
// when the minimal global port is congested more than twice as far into the
// future as the Valiant alternative plus one hop of slack, the UGAL
// criterion — a Valiant route through a hash-chosen intermediate group (two
// global hops). The intermediate group is a pure function of
// (src, dst, at), never of per-pair mutable state.
//
// Dead elements reshape the choice: a dead local link inside a group detours
// through a live intermediate router; a dead global channel (or dead
// gateway/entry router) forces the Valiant escape through the first live
// intermediate group scanned from the hash-chosen start; only a dead
// endpoint router — or a fault set leaving no live intermediate — is a real
// partition. With no faults installed every check passes and the original
// UGAL decision is reproduced exactly.
func (t *dragonfly) route(ports []*sim.Timeline, at sim.Time, src, dst int) ([]*sim.Timeline, sim.Duration, bool, error) {
	rs, rd := t.router(src), t.router(dst)
	if !t.routerLive(rs, at) || !t.routerLive(rd, at) {
		return ports, 0, false, unreachableErr(src, dst, at)
	}
	if rs == rd {
		return ports, t.hop, false, nil
	}
	gs, gd := t.group(rs), t.group(rd)
	if gs == gd {
		if !t.localDead(rs, rd, at) {
			ports = append(ports, t.localOut[rs][rd%t.a])
			return ports, 2 * t.hop, false, nil
		}
		// Dead local link: detour through the group's least-loaded live
		// intermediate router (three traversals instead of two).
		best := -1
		for i := 0; i < t.a; i++ {
			x := gs*t.a + i
			if x == rs || x == rd || !t.routerLive(x, at) ||
				t.localDead(rs, x, at) || t.localDead(x, rd, at) {
				continue
			}
			if best < 0 || t.localOut[rs][i].BusyUntil() < t.localOut[rs][best%t.a].BusyUntil() {
				best = x
			}
		}
		if best < 0 {
			return ports, 0, false, unreachableErr(src, dst, at)
		}
		ports = append(ports, t.localOut[rs][best%t.a], t.localOut[best][rd%t.a])
		return ports, 3 * t.hop, true, nil
	}
	minOK := t.minimalOK(rs, rd, gd, at)
	useValiant, via := false, -1
	if t.groups > 2 && minOK {
		gwMin, portMin := t.gateway(gs, gd)
		minDelay := t.globalOut[gwMin][portMin].BusyUntil().Sub(at)
		if minDelay > 0 {
			v := t.valiantGroup(src, dst, at, gs, gd)
			if t.valiantOK(rs, rd, v, gd, at) {
				gwVal, portVal := t.gateway(gs, v)
				valDelay := t.globalOut[gwVal][portVal].BusyUntil().Sub(at)
				if valDelay < 0 {
					valDelay = 0
				}
				if minDelay > 2*valDelay+t.hop {
					useValiant, via = true, v
				}
			}
		}
	}
	rerouted := false
	if !minOK {
		via = t.feasibleVia(src, dst, at, gs, gd, rs, rd)
		if via < 0 {
			return ports, 0, false, unreachableErr(src, dst, at)
		}
		useValiant, rerouted = true, true
	}
	hops := 1 // the source router
	cur := rs
	var legHops int
	if useValiant {
		ports, cur, legHops = t.globalLeg(ports, cur, via)
		hops += legHops
	}
	ports, cur, legHops = t.globalLeg(ports, cur, gd)
	hops += legHops
	if cur != rd {
		ports = append(ports, t.localOut[cur][rd%t.a])
		hops++
	}
	return ports, sim.Duration(hops) * t.hop, rerouted, nil
}

// valiantGroup picks the deterministic intermediate group of a Valiant
// route: a hash over (src, dst, at) mapped onto the groups other than the
// source's and the destination's.
func (t *dragonfly) valiantGroup(src, dst int, at sim.Time, gs, gd int) int {
	v := int(routeHash(uint64(src), uint64(dst), uint64(at)) % uint64(t.groups-2))
	lo, hi := gs, gd
	if lo > hi {
		lo, hi = hi, lo
	}
	if v >= lo {
		v++
	}
	if v >= hi {
		v++
	}
	return v
}

func (t *dragonfly) ports(fn func(*sim.Timeline)) {
	for r := range t.localOut {
		for _, tl := range t.localOut[r] {
			if tl != nil {
				fn(tl)
			}
		}
		for _, tl := range t.globalOut[r] {
			fn(tl)
		}
	}
}
