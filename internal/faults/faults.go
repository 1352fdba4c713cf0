// Package faults is the deterministic fault-injection layer of the
// simulated cluster: it turns the perfectly healthy fabric into a scenario
// engine that can model degraded links, flapping NIC ports, and slow ranks,
// all in virtual time and bit-reproducibly.
//
// A Plan is a declarative fault scenario. Three fault kinds exist, each
// consumed by a different layer of the stack:
//
//   - LinkFault: per-path latency/bandwidth multipliers over virtual-time
//     windows, applied where the machine model's resolved fabric.LinkCost is
//     booked onto the fabric (fabric.Fabric.LinkFault hook) — all backends
//     (MPI, GPUCCL, GPUSHMEM) route every transfer through it.
//   - PortStall: windows during which a NIC port admits no new reservations
//     (sim.Timeline stall windows), modeling a flapping Slingshot port. The
//     MPI rendezvous protocol observes stalls and retries with backoff.
//   - SlowRank: per-rank compute multipliers, applied where internal/gpu
//     resolves modeled kernel time (gpu.Cluster.ComputeFault hook).
//
// Plans are either hand-written (Degrade composes a uniform severity ramp)
// or generated (Generate), in which case every random draw comes from a
// splitmix64 stream keyed by seed + fault site — never wall clock — so the
// same seed always yields the same scenario. core.Config.Faults installs a
// plan into a run.
package faults

import (
	"fmt"
	"math"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Any matches every rank / node / NIC in a fault selector.
const Any = -1

// anyPath matches every fabric path kind in a LinkFault.
const anyPath fabric.Path = -1

// Forever is the open-ended end time for windows spanning the whole run.
// It is far beyond any realistic virtual time (~73 years) but leaves
// headroom below MaxInt64 so shifting an admission past the window and
// adding a transfer duration cannot overflow sim.Time.
const Forever = sim.Time(math.MaxInt64 / 4)

// Window is a half-open interval [Start, End) of virtual time.
type Window struct {
	Start, End sim.Time
}

// always spans the whole simulation.
var always = Window{Start: 0, End: Forever}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t sim.Time) bool { return t >= w.Start && t < w.End }

// LinkFault degrades transfers on matching routes during a window.
// Factors compose multiplicatively when several faults match; a zero factor
// means "leave unchanged" (so the zero value is harmless).
type LinkFault struct {
	// Src and Dst select global GPU ids (Any for wildcards).
	Src, Dst int
	// Path restricts the fault to one route kind (anyPath for all).
	Path fabric.Path
	// Window is when the fault is active.
	Window Window
	// LatencyFactor multiplies the resolved per-message latency (>= 1
	// degrades; 0 or 1 leaves it unchanged).
	LatencyFactor float64
	// BandwidthFactor multiplies the resolved streaming bandwidth (in
	// (0, 1] degrades; 0 or 1 leaves it unchanged).
	BandwidthFactor float64
}

func (lf LinkFault) matches(at sim.Time, src, dst int, path fabric.Path) bool {
	if lf.Src != Any && lf.Src != src {
		return false
	}
	if lf.Dst != Any && lf.Dst != dst {
		return false
	}
	if lf.Path != anyPath && lf.Path != path {
		return false
	}
	return lf.Window.Contains(at)
}

// PortStall blacks out NIC ports for a window: no new reservation is
// admitted while it is active (both directions of the port).
type PortStall struct {
	// Node selects the node (Any for all nodes).
	Node int
	// NIC selects the port on matched nodes (Any for all ports).
	NIC    int
	Window Window
}

// SlowRank multiplies the modeled compute time of kernels running on one
// rank's device during a window, modeling a thermally throttled or noisy
// GPU.
type SlowRank struct {
	// Rank selects the global rank/device (Any for all).
	Rank int
	// Factor multiplies kernel compute time (>= 1 degrades; 0 or 1 leaves
	// it unchanged).
	Factor float64
	Window Window
}

// Plan is one complete fault scenario. The zero value (and a nil *Plan)
// injects nothing.
type Plan struct {
	Links     []LinkFault
	Stalls    []PortStall
	SlowRanks []SlowRank

	// Hard (terminal) faults; see hard.go. Crashes kill ranks outright,
	// LinkDowns permanently fail routes (the fabric then reroutes onto its
	// failover path), SwitchCrashes and InterLinkDowns kill elements of the
	// switched inter-node topology (adaptive routing steers around them),
	// and Lease tunes the failure detector's heartbeat lease (0 means
	// DefaultLease).
	Crashes        []RankCrash
	LinkDowns      []LinkDown
	SwitchCrashes  []SwitchCrash
	InterLinkDowns []InterLinkDown
	Lease          sim.Duration

	// Watchdog, when positive, arms the engine's virtual-time watchdog:
	// a run whose clock would pass the deadline fails with a structured
	// sim.TimeoutError instead of creeping forward forever.
	Watchdog sim.Duration

	// Observe, when non-nil, is called by LinkCostAt for every transfer
	// with the indices (into Links) of the link faults active for it.
	// The cross-backend uniformity tests install it to assert that
	// different backends see the same fault windows for the same traffic
	// pattern; it never alters the cost.
	Observe func(at sim.Time, src, dst int, path fabric.Path, active []int)
}

// LinkCostAt applies the plan's matching link faults to a resolved cost.
// It has the fabric.LinkFaultFn signature and is installed as the fabric's
// LinkFault hook.
func (p *Plan) LinkCostAt(at sim.Time, src, dst int, path fabric.Path, cost fabric.LinkCost) fabric.LinkCost {
	if p == nil {
		return cost
	}
	if p.Observe != nil {
		p.Observe(at, src, dst, path, p.ActiveLinks(at, src, dst, path))
	}
	for _, lf := range p.Links {
		if !lf.matches(at, src, dst, path) {
			continue
		}
		if lf.LatencyFactor > 0 && lf.LatencyFactor != 1 {
			cost.Latency = sim.Duration(math.Round(float64(cost.Latency) * lf.LatencyFactor))
		}
		if lf.BandwidthFactor > 0 && lf.BandwidthFactor != 1 {
			cost.BytesPerSec *= lf.BandwidthFactor
		}
	}
	return cost
}

// ComputeFactor reports the compute-time multiplier for a kernel starting at
// the given time on the given rank (1 when healthy). It is installed as
// gpu.Cluster.ComputeFault.
func (p *Plan) ComputeFactor(at sim.Time, rank int) float64 {
	if p == nil {
		return 1
	}
	f := 1.0
	for _, sr := range p.SlowRanks {
		if sr.Rank != Any && sr.Rank != rank {
			continue
		}
		if !sr.Window.Contains(at) || sr.Factor <= 0 || sr.Factor == 1 {
			continue
		}
		f *= sr.Factor
	}
	return f
}

// ApplyStalls installs the plan's port stalls onto the fabric's NIC
// timelines. Call once per run, after the fabric is built.
func (p *Plan) ApplyStalls(f *fabric.Fabric) {
	if p == nil {
		return
	}
	cfg := f.Config()
	for _, st := range p.Stalls {
		nodes := []int{st.Node}
		if st.Node == Any {
			nodes = nodes[:0]
			for n := 0; n < cfg.Nodes; n++ {
				nodes = append(nodes, n)
			}
		}
		for _, node := range nodes {
			nics := []int{st.NIC}
			if st.NIC == Any {
				nics = nics[:0]
				for i := 0; i < cfg.NICsPerNode; i++ {
					nics = append(nics, i)
				}
			}
			for _, nic := range nics {
				f.StallNIC(node, nic, st.Window.Start, st.Window.End)
			}
		}
	}
}

// ActiveLinks reports the indices (into p.Links) of the link faults matching
// one transfer, in declaration order. It is the observability counterpart of
// LinkCostAt: the cross-backend uniformity tests use it to assert that
// different backends observe the same set of fault windows for the same
// traffic pattern.
func (p *Plan) ActiveLinks(at sim.Time, src, dst int, path fabric.Path) []int {
	if p == nil {
		return nil
	}
	var idx []int
	for i, lf := range p.Links {
		if lf.matches(at, src, dst, path) {
			idx = append(idx, i)
		}
	}
	return idx
}

// Degrade builds the canonical severity ramp: a plan that uniformly
// degrades the given path kind for the whole run, with latency multiplied
// by 1+4*severity and bandwidth divided by 1+4*severity. Severity 0 returns
// an empty (fault-free) plan; the ramp is monotone in severity by
// construction, which the chaos suite relies on.
func Degrade(path fabric.Path, severity float64) *Plan {
	if severity <= 0 {
		return &Plan{}
	}
	k := 1 + float64(4*severity) // exact, but rounded as Generate's factors are
	return &Plan{
		Links: []LinkFault{{
			Src: Any, Dst: Any, Path: path, Window: always,
			LatencyFactor:   k,
			BandwidthFactor: 1 / k,
		}},
	}
}

// Generate derives a randomized scenario of the given severity (in [0, 1])
// for a cluster of the given shape, over a horizon of virtual time:
// degraded intra- and inter-node paths, flapping NIC ports, and one or more
// slow ranks, all scaled by severity. Identical (seed, severity, cfg,
// horizon) inputs yield identical plans; severity <= 0 yields an empty
// plan.
func Generate(seed uint64, severity float64, cfg fabric.Config, horizon sim.Duration) *Plan {
	p := &Plan{}
	if severity <= 0 {
		return p
	}
	if severity > 1 {
		severity = 1
	}

	// Link degradation: one fault per path kind, factors scaled by severity
	// with a site-keyed jitter. Each float64(...) rounds a product, so no CPU
	// fuses it into the sum and a plan is the same on every architecture.
	for _, path := range []fabric.Path{fabric.PathIntra, fabric.PathInter} {
		r := newRand(seed, "link/"+path.String())
		k := 1 + float64(3*severity*r.between(0.5, 1))
		p.Links = append(p.Links, LinkFault{
			Src: Any, Dst: Any, Path: path, Window: always,
			LatencyFactor:   k,
			BandwidthFactor: 1 / (1 + float64(4*severity*r.between(0.5, 1))),
		})
	}

	// Flapping NIC ports: each port draws its own window schedule.
	flaps := int(math.Ceil(severity * 3))
	for node := 0; node < cfg.Nodes; node++ {
		for nic := 0; nic < cfg.NICsPerNode; nic++ {
			r := newRand(seed, fmt.Sprintf("stall/node%d/nic%d", node, nic))
			for i := 0; i < flaps; i++ {
				start := sim.Time(r.between(0, 0.9) * float64(horizon))
				dur := sim.Duration(severity * r.between(0.01, 0.05) * float64(horizon))
				p.Stalls = append(p.Stalls, PortStall{
					Node: node, NIC: nic,
					Window: Window{Start: start, End: start.Add(dur)},
				})
			}
		}
	}

	// One slow rank, chosen by the seed. Site bumped to /v2 when intn
	// switched to unbiased (Lemire) sampling, so the plan change is explicit.
	nGPUs := cfg.Nodes * cfg.GPUsPerNode
	r := newRand(seed, "slowrank/v2")
	p.SlowRanks = append(p.SlowRanks, SlowRank{
		Rank:   r.intn(nGPUs),
		Factor: 1 + float64(2*severity*r.between(0.5, 1)),
		Window: always,
	})
	return p
}
