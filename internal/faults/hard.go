package faults

// Hard (terminal) faults: rank crashes and permanently dead links. Unlike
// the soft faults in faults.go, which degrade cost and are survivable by
// waiting, hard faults remove capacity for good. They are consumed by two
// layers:
//
//   - internal/core schedules each RankCrash (killing the rank's host
//     process and its GPU streams) and runs the heartbeat failure detector
//     that converts the crash into a sim.RankFailedError delivered to every
//     blocked survivor once the lease expires.
//   - fabric.Fabric consumes LinkDowns (via ApplyHardFaults): a dead route
//     stops admitting transfers and traffic fails over onto the degraded
//     fallback path instead of deadlocking.

import (
	"math"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// RankCrash kills one rank at a virtual time: its host process and GPU
// streams stop dead, without any goodbye message. Peers only learn of it
// through the failure detector.
type RankCrash struct {
	Rank int
	At   sim.Time
}

// LinkDown permanently fails matching routes from a virtual time on. Src
// and Dst are global GPU ids (Any for wildcards); Path selects the route
// kind. The fabric redirects affected traffic onto its failover path.
type LinkDown struct {
	Src, Dst int
	Path     fabric.Path
	At       sim.Time
}

// SwitchCrash kills one switch of the inter-node topology at a virtual time:
// a fat-tree edge/aggregation/core switch or a dragonfly router (see the
// switch-id numbering in fabric/topofault.go). Adaptive routing steers
// surviving traffic around the dead element; only a crash exhausting the
// topology's path diversity — e.g. an edge switch, which is its nodes' sole
// uplink — partitions nodes, surfaced as fabric.UnreachableError.
type SwitchCrash struct {
	switchID int
	at       sim.Time
}

// InterLinkDown permanently fails the link between two adjacent switches of
// the inter-node topology at a virtual time: a fat-tree edge-aggregation or
// aggregation-core pair, or two dragonfly routers (same group: their local
// link; different groups: the single global channel between the groups).
type InterLinkDown struct {
	a, b int
	at   sim.Time
}

// DefaultLease is the failure detector's heartbeat lease when a plan leaves
// Lease zero. Ranks heartbeat every DefaultLease/2 of virtual time; a crash
// at time t is declared one full lease after its last delivered heartbeat,
// so detection latency is in [lease/2, lease).
const DefaultLease = sim.Millisecond

// ApplyHardFaults installs the plan's dead links, crashed switches, and dead
// inter-switch links onto the fabric. Call once per run, after the fabric is
// built and before it starts (rank crashes are scheduled by internal/core,
// not here).
func (p *Plan) ApplyHardFaults(f *fabric.Fabric) {
	if p == nil {
		return
	}
	for _, ld := range p.LinkDowns {
		f.DownLink(ld.Src, ld.Dst, ld.Path, ld.At)
	}
	for _, sc := range p.SwitchCrashes {
		f.CrashSwitch(sc.switchID, sc.at)
	}
	for _, il := range p.InterLinkDowns {
		f.DownInterLink(il.a, il.b, il.at)
	}
}

// GenerateHard extends Generate with terminal faults for recovery-aware
// chaos runs. Severity thresholds gate the hard-fault kinds:
//
//   - severity >= 0.5: rank crashes — ceil(severity * ranks / 4) distinct
//     ranks (always leaving at least one survivor) die at times drawn from
//     [0.1, 0.6) of the horizon, mid-run so collectives are in flight.
//   - severity >= 0.75: one intra-node route additionally goes down for
//     good, exercising the failover path on the survivors.
//
// Crashes and the dead route are drawn over the job's ranks, packed onto
// cfg's nodes, not over the GPU slots of a last node the job leaves part-empty.
//
// On a switched topology (cfg.Topology) the crash gate also kills one
// redundant fabric element, so recovery always composes with rerouting:
//
//   - fat-tree with spare aggregations (k >= 4): one aggregation switch of a
//     node-hosting pod crashes; at severity >= 0.75 one edge-aggregation
//     link of a different pod additionally dies. Edge switches are never
//     targeted (a dead edge partitions its nodes).
//   - dragonfly with a Valiant escape (>= 3 groups): the global channel
//     between two node-hosting groups dies. Routers are never targeted
//     (a dead router partitions its nodes).
//
// Below 0.5 the result equals Generate plus the default lease. All draws
// are site-keyed ("crash/v1", "linkdown/v1", "switchcrash/v1",
// "interlink/v1"), so hard faults do not perturb the soft-fault scenario for
// the same seed, and flat-topology plans are byte-identical to what this
// function generated before topologies existed.
func GenerateHard(seed uint64, severity float64, cfg fabric.Config, ranks int, horizon sim.Duration) *Plan {
	p := Generate(seed, severity, cfg, horizon)
	p.Lease = DefaultLease
	if severity < 0.5 {
		return p
	}
	if severity > 1 {
		severity = 1
	}
	if ranks >= 2 {
		r := newRand(seed, "crash/v1")
		n := int(math.Ceil(severity * float64(ranks) / 4))
		if n > ranks-1 {
			n = ranks - 1
		}
		picked := make(map[int]bool, n)
		for len(picked) < n {
			rank := r.intn(ranks)
			if picked[rank] {
				continue
			}
			picked[rank] = true
			at := sim.Time(r.between(0.1, 0.6) * float64(horizon))
			p.Crashes = append(p.Crashes, RankCrash{Rank: rank, At: at})
		}
	}
	if severity >= 0.75 && cfg.GPUsPerNode >= 2 && ranks >= 2 {
		// Drawn among the nodes holding two or more ranks: every node of a
		// whole-node job, whose draws the recover-*.golden tables pin.
		r := newRand(seed, "linkdown/v1")
		node := r.intn((ranks + cfg.GPUsPerNode - 2) / cfg.GPUsPerNode)
		onNode := min(cfg.GPUsPerNode, ranks-node*cfg.GPUsPerNode)
		a := r.intn(onNode)
		b := r.intn(onNode - 1)
		if b >= a {
			b++
		}
		p.LinkDowns = append(p.LinkDowns, LinkDown{
			Src:  node*cfg.GPUsPerNode + a,
			Dst:  node*cfg.GPUsPerNode + b,
			Path: fabric.PathIntra,
			At:   sim.Time(r.between(0.1, 0.5) * float64(horizon)),
		})
	}
	generateTopologyFaults(p, seed, severity, cfg, horizon)
	return p
}

// generateTopologyFaults adds the switched-topology hard faults of
// GenerateHard (severity >= 0.5). Only elements adaptive routing can steer
// around are targeted, so generated plans degrade the fabric but never
// partition it — injected chaos must exercise rerouting and recovery, not
// undefined unreachable-pair behavior.
func generateTopologyFaults(p *Plan, seed uint64, severity float64, cfg fabric.Config, horizon sim.Duration) {
	tc, err := fabric.ResolveTopology(cfg.Topology, cfg.Nodes)
	if err != nil {
		return // a network too small for the job: its launch refuses it
	}
	switch tc.Kind {
	case fabric.TopoFatTree:
		k := tc.FatTreeArity
		if k < 4 {
			// k=2 pods hold one aggregation each: no redundancy to reroute
			// onto, so a crash would partition cross-edge traffic.
			return
		}
		half := k / 2
		usedPods := (cfg.Nodes + half*half - 1) / (half * half)
		r := newRand(seed, "switchcrash/v1")
		crashPod, crashPos := r.intn(usedPods), r.intn(half)
		p.SwitchCrashes = append(p.SwitchCrashes, SwitchCrash{
			switchID: fabric.FatTreeAggSwitch(k, crashPod, crashPos),
			at:       sim.Time(r.between(0.1, 0.5) * float64(horizon)),
		})
		if severity >= 0.75 && usedPods >= 2 {
			// Additionally kill one edge->aggregation link in a pod other
			// than the crashed aggregation's, at the SAME aggregation
			// position: cross-pod routes climb through one position end to
			// end, so a crash at position x in one pod and a dead link at
			// position y != x in another would block both of a k=4 tree's
			// positions for pairs spanning them — a partition, not a detour.
			// Reusing the position keeps every pair's diversity >= 1.
			r2 := newRand(seed, "interlink/v1")
			usedEdges := (cfg.Nodes + half - 1) / half
			edge := r2.intn(usedEdges)
			for edge/half == crashPod {
				edge = (edge + 1) % usedEdges
			}
			p.InterLinkDowns = append(p.InterLinkDowns, InterLinkDown{
				a:  edge,
				b:  fabric.FatTreeAggSwitch(k, edge/half, crashPos),
				at: sim.Time(r2.between(0.1, 0.5) * float64(horizon)),
			})
		}
	case fabric.TopoDragonfly:
		a, hosts := tc.DragonflyRouters, tc.DragonflyHosts
		groups := (cfg.Nodes + a*hosts - 1) / (a * hosts)
		if groups < 3 {
			// Minimal routing is the only route between two groups: a dead
			// global channel needs a third group for the Valiant escape.
			return
		}
		r := newRand(seed, "interlink/v1")
		g1 := r.intn(groups)
		g2 := r.intn(groups - 1)
		if g2 >= g1 {
			g2++
		}
		// The first router of each group names the groups; the fabric downs
		// the single palmtree global channel between them.
		p.InterLinkDowns = append(p.InterLinkDowns, InterLinkDown{
			a:  g1 * a,
			b:  g2 * a,
			at: sim.Time(r.between(0.1, 0.5) * float64(horizon)),
		})
	}
}
