// Package fabric models the communication hardware of a multi-GPU cluster:
// intra-node GPU-to-GPU links (NVLink, Infinity Fabric) and the inter-node
// network reached through per-GPU NIC ports (Slingshot, InfiniBand).
//
// The fabric is deliberately library-agnostic: it moves bytes between GPU
// ports with a caller-supplied latency/bandwidth cost, and it provides the
// contention model (FCFS port occupancy via sim.Timeline). Which latency and
// effective bandwidth apply for a given communication library, API flavour,
// and message size is decided by the machine model (internal/machine).
package fabric

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Path classifies the route between two GPUs.
type Path int

const (
	// PathSelf is a device-local copy (same GPU).
	PathSelf Path = iota
	// PathIntra crosses the intra-node interconnect (NVLink / xGMI).
	PathIntra
	// PathInter crosses NICs and the system network.
	PathInter
)

func (p Path) String() string {
	switch p {
	case PathSelf:
		return "self"
	case PathIntra:
		return "intra"
	case PathInter:
		return "inter"
	default:
		return fmt.Sprintf("Path(%d)", int(p))
	}
}

// LinkCost is the resolved cost of moving one message across a path.
type LinkCost struct {
	// Latency is the end-to-end per-message latency (software stack plus
	// wire). It delays delivery but does not occupy the ports.
	Latency sim.Duration
	// BytesPerSec is the effective streaming bandwidth for this message.
	BytesPerSec float64
}

// Duration returns the port-occupancy time for a message of the given size,
// rounded half-away-from-zero to the nearest nanosecond. The plain
// float→integer conversion used previously truncated, systematically
// shaving up to 1ns off every transfer and biasing long serialized chains
// (a ring allreduce books thousands of back-to-back reservations) low by
// the accumulated truncation.
func (c LinkCost) Duration(bytes int64) sim.Duration {
	if bytes <= 0 || c.BytesPerSec <= 0 {
		return 0
	}
	return sim.Duration(math.Round(float64(bytes) / c.BytesPerSec * float64(sim.Second)))
}

// Config describes the shape of the cluster.
type Config struct {
	Nodes       int
	GPUsPerNode int
	// NICsPerNode is the number of network ports per node. GPUs map to
	// NICs by index (GPU local id * NICs / GPUsPerNode), so when NICs are
	// scarcer than GPUs, neighbours share a port and contend. It must be
	// at least 1: New panics on an unset count instead of guessing
	// (machine.Model.FabricConfig applies the default of one port).
	NICsPerNode int
	// Topology selects the inter-node network model beyond the NICs
	// (topology.go). The zero value is the flat single-hop network.
	Topology TopologyConfig
}

// LinkFaultFn rewrites the resolved cost of one transfer at booking time.
// The fault-injection layer (internal/faults) installs one to apply per-path
// latency/bandwidth degradation over virtual-time windows; the identity
// function (or nil) leaves the fabric healthy.
type LinkFaultFn func(at sim.Time, src, dst int, path Path, cost LinkCost) LinkCost

// Fabric is the instantiated interconnect of one simulated cluster.
type Fabric struct {
	cfg Config

	// Per-GPU intra-node ports, indexed by global GPU id.
	egress  []*sim.Timeline
	ingress []*sim.Timeline
	// Per-NIC ports, indexed by node*NICsPerNode + nic.
	nicOut []*sim.Timeline
	nicIn  []*sim.Timeline

	// Trace, when non-nil, records every transfer as a span; xferLabels holds
	// the span label of each (src, dst) pair seen, formatted on first use.
	Trace      *trace.Log
	xferLabels map[[2]int]string

	// LinkFault, when non-nil, rewrites each transfer's link cost before
	// booking (fault injection; see internal/faults).
	LinkFault LinkFaultFn

	// Hard-fault state: permanently dead routes (their fallback penalties
	// are the package's failovers table; failover.go). The failover counter
	// is atomic so FailoverTransfers may be sampled from outside the
	// engine's goroutine while a run is in flight.
	downs         []downLink
	failoverCount atomic.Int64

	// topo is the inter-node switch fabric; nil on the flat topology, so
	// the flat hot path keeps its pair-of-ports fast route.
	topo topology
	// routeScratch is the reusable port slice of coupled inter-node
	// transfers. Safe without locking: Transfer only ever runs on the
	// engine's goroutine.
	routeScratch []*sim.Timeline

	// m holds pre-resolved metrics instruments (SetMetrics); nil disables.
	m *fabricMetrics
}

// New builds the fabric for a cluster configuration.
func New(cfg Config) *Fabric {
	if cfg.Nodes < 1 || cfg.GPUsPerNode < 1 {
		panic(fmt.Sprintf("fabric: invalid config: Nodes=%d, GPUsPerNode=%d (both must be >= 1)",
			cfg.Nodes, cfg.GPUsPerNode))
	}
	if cfg.NICsPerNode < 1 {
		// An unset NIC count used to silently alias GPUsPerNode; a zero or
		// negative count then built empty port slices and crashed with an
		// opaque index panic deep inside Transfer. Fail at construction
		// instead — machine.Model.FabricConfig supplies the default.
		panic(fmt.Sprintf("fabric: invalid config: NICsPerNode=%d (must be >= 1; machine.Model.FabricConfig defaults unset counts to 1)",
			cfg.NICsPerNode))
	}
	nGPU := cfg.Nodes * cfg.GPUsPerNode
	nNIC := cfg.Nodes * cfg.NICsPerNode
	f := &Fabric{cfg: cfg}
	f.topo = buildTopology(&f.cfg)
	for i := 0; i < nGPU; i++ {
		f.egress = append(f.egress, sim.NewTimeline(fmt.Sprintf("gpu%d.egress", i)))
		f.ingress = append(f.ingress, sim.NewTimeline(fmt.Sprintf("gpu%d.ingress", i)))
	}
	for i := 0; i < nNIC; i++ {
		f.nicOut = append(f.nicOut, sim.NewTimeline(fmt.Sprintf("nic%d.out", i)))
		f.nicIn = append(f.nicIn, sim.NewTimeline(fmt.Sprintf("nic%d.in", i)))
	}
	return f
}

// Config returns the cluster shape, with auto-sized topology parameters
// resolved to their chosen values.
func (f *Fabric) Config() Config { return f.cfg }

// Topology returns the resolved inter-node topology configuration.
func (f *Fabric) Topology() TopologyConfig { return f.cfg.Topology }

// InterExtraLatency reports the deterministic minimal-route switch latency
// between two GPUs' nodes (zero on the flat topology or within a node). The
// MPI layer adds it to the wire time of every inter-node control envelope
// (rendezvous RTS/CTS), which books no port and so sees no route.
func (f *Fabric) InterExtraLatency(src, dst int) sim.Duration {
	if f.topo == nil {
		return 0
	}
	sn, dn := f.Node(src), f.Node(dst)
	if sn == dn {
		return 0
	}
	return f.topo.extra(sn, dn)
}

// NumGPUs reports the total GPU count.
func (f *Fabric) NumGPUs() int { return f.cfg.Nodes * f.cfg.GPUsPerNode }

// Node reports the node housing a global GPU id.
func (f *Fabric) Node(gpu int) int { return gpu / f.cfg.GPUsPerNode }

// Local reports the node-local index of a global GPU id.
func (f *Fabric) Local(gpu int) int { return gpu % f.cfg.GPUsPerNode }

// nic returns the NIC port index serving a GPU.
func (f *Fabric) nic(gpu int) int {
	f.checkGPU(gpu)
	node, local := f.Node(gpu), f.Local(gpu)
	return node*f.cfg.NICsPerNode + local*f.cfg.NICsPerNode/f.cfg.GPUsPerNode
}

// checkGPU validates a global GPU id. Out-of-range ids used to slip through
// silently: a negative or too-large id misclassified the path (PathBetween)
// or crashed with an index panic far from the offending call site.
func (f *Fabric) checkGPU(id int) {
	if id < 0 || id >= f.NumGPUs() {
		panic(fmt.Sprintf("fabric: GPU id %d outside [0, %d) (%d nodes x %d GPUs)",
			id, f.NumGPUs(), f.cfg.Nodes, f.cfg.GPUsPerNode))
	}
}

// PathBetween classifies the route between two global GPU ids. Both ids
// must be in range; out-of-range ids panic with a descriptive message.
func (f *Fabric) PathBetween(src, dst int) Path {
	f.checkGPU(src)
	f.checkGPU(dst)
	if src == dst {
		return PathSelf
	}
	if f.Node(src) == f.Node(dst) {
		return PathIntra
	}
	return PathInter
}

// routePorts returns the two timelines a transfer on the given route
// occupies. Every route holds exactly one egress-side and one ingress-side
// port, so the result is a pair, not a slice — the transfer hot path calls
// this per message and must not allocate.
func (f *Fabric) routePorts(src, dst int, path Path) (out, in *sim.Timeline) {
	switch path {
	case PathSelf:
		// Device-local copy: occupy the GPU's own ports (one copy engine
		// in, one out) so concurrent local copies serialize with each other
		// and with incoming intra-node traffic, as on a real copy engine.
		return f.egress[src], f.ingress[src]
	case PathIntra:
		return f.egress[src], f.ingress[dst]
	default:
		return f.nicOut[f.nic(src)], f.nicIn[f.nic(dst)]
	}
}

// Transfer books a message of the given size from src to dst starting no
// earlier than at, and returns the virtual time at which the last byte
// arrives at dst. The caller is responsible for scheduling any completion
// event (typically sim.Engine.After or a Gate fired at the returned time).
//
// Port occupancy: device-local copies hold the GPU's own egress and ingress
// ports; intra-node messages hold the source's egress port and the
// destination's ingress port; inter-node messages hold both NIC ports. The
// latency component delays arrival but does not occupy ports, which models
// pipelining of back-to-back messages.
//
// If a port on the route carries stall windows (fault injection), the
// transfer's start is deterministically pushed past them; use TryTransfer to
// observe the stall instead and retry.
func (f *Fabric) Transfer(at sim.Time, src, dst int, bytes int64, cost LinkCost) sim.Time {
	path := f.PathBetween(src, dst)
	if f.LinkFault != nil {
		healthy := cost
		cost = f.LinkFault(at, src, dst, path, cost)
		if f.m != nil && cost != healthy {
			f.m.faulted.Inc()
		}
	}
	track := path.String()
	if len(f.downs) > 0 && f.LinkDownAt(at, src, dst, path) {
		// Dead route: redirect onto the path's fallback route instead of
		// blocking. The same ports are occupied (the staged copy still moves
		// through them) but the transfer pays the failover cost.
		cost = failovers[path].apply(cost)
		f.noteFailover()
		track = track + "+failover"
	}
	portOut, portIn := f.routePorts(src, dst, path)
	var start, end sim.Time
	var extra sim.Duration
	if path == PathInter && f.topo != nil {
		// Switched topology: book every output port of the adaptive route
		// alongside the NIC pair (cut-through: one shared occupancy window)
		// and delay arrival by the per-switch traversal latency. Dead
		// switches/links steer the route onto live candidates (counted as a
		// failover); a pair with no live route left aborts the calling proc
		// with the typed *UnreachableError — a real partition, catchable via
		// sim.Protect.
		ports := append(f.routeScratch[:0], portOut)
		ports, routeExtra, rerouted, rerr := f.topo.route(ports, at, f.Node(src), f.Node(dst))
		if rerr != nil {
			f.routeScratch = ports[:0]
			sim.Abort(rerr)
		}
		extra = routeExtra
		if rerouted {
			f.noteFailover()
			track = track + "+reroute"
		}
		ports = append(ports, portIn)
		f.routeScratch = ports[:0] // retain grown capacity across transfers
		start, end = sim.ReserveMulti(at, cost.Duration(bytes), ports...)
	} else {
		start, end = sim.ReserveMulti(at, cost.Duration(bytes), portOut, portIn)
	}
	arrive := end.Add(cost.Latency + extra)
	if f.m != nil {
		f.m.xfers[path].Inc()
		f.m.bytes[path].Add(bytes)
		f.m.wait[path].Add(int64(start.Sub(at)))
	}
	if f.Trace != nil {
		label, ok := f.xferLabels[[2]int{src, dst}]
		if !ok {
			if f.xferLabels == nil {
				f.xferLabels = map[[2]int]string{}
			}
			label = fmt.Sprintf("gpu%d->gpu%d", src, dst)
			f.xferLabels[[2]int{src, dst}] = label
		}
		f.Trace.Add(trace.Span{
			Kind:  trace.KindTransfer,
			Label: label,
			Track: track,
			Rank:  src, Src: src, Dst: dst,
			Start: start, End: arrive, Bytes: bytes,
		})
	}
	return arrive
}

// StallError reports a transfer rejected because a port on its route is
// inside a stall window.
type StallError struct {
	port  string   // label of the stalled port
	Until sim.Time // when admission reopens
}

func (e *StallError) Error() string {
	return fmt.Sprintf("fabric: port %s stalled until %v", e.port, e.Until)
}

// TryTransfer is Transfer, except that when a port on the route is inside a
// stall window at time at it books nothing and returns the stall, so the
// caller can retry (with backoff) once the port readmits. A transfer that is
// admitted may still queue behind earlier reservations as usual.
func (f *Fabric) TryTransfer(at sim.Time, src, dst int, bytes int64, cost LinkCost) (sim.Time, *StallError) {
	path := f.PathBetween(src, dst)
	portOut, portIn := f.routePorts(src, dst, path)
	for _, tl := range [...]*sim.Timeline{portOut, portIn} {
		if until, stalled := tl.StalledAt(at); stalled {
			if f.m != nil {
				f.m.stalls.Inc()
			}
			return 0, &StallError{port: tl.Label(), Until: until}
		}
	}
	return f.Transfer(at, src, dst, bytes, cost), nil
}

// StallNIC adds an admission blackout on one NIC port of a node, in both
// directions, modeling a flapping network port. Transfers routed through the
// port during [start, end) are pushed past the window (Transfer) or rejected
// for retry (TryTransfer).
func (f *Fabric) StallNIC(node, nic int, start, end sim.Time) {
	if node < 0 || node >= f.cfg.Nodes || nic < 0 || nic >= f.cfg.NICsPerNode {
		panic(fmt.Sprintf("fabric: StallNIC(%d, %d) outside %d nodes x %d NICs",
			node, nic, f.cfg.Nodes, f.cfg.NICsPerNode))
	}
	idx := node*f.cfg.NICsPerNode + nic
	f.nicOut[idx].AddStall(start, end)
	f.nicIn[idx].AddStall(start, end)
}

// AppendState appends the fabric's state relative to now for a fast-forward
// digest (sim.Engine.AppendState): how long each port stays busy. It reports
// false when transfers would depend on absolute time or on more than the
// ports' horizons: injected faults (a fault plan installs LinkFault with its
// stall windows), dead routes, or a switched topology (adaptive routing
// reads every candidate port's load and hashes the booking time).
func (f *Fabric) AppendState(b []byte, now sim.Time) ([]byte, bool) {
	if f.topo != nil || f.LinkFault != nil || len(f.downs) > 0 {
		return b, false
	}
	f.flatPorts(func(tl *sim.Timeline) { b = binary.AppendVarint(b, int64(max(tl.BusyUntil().Sub(now), 0))) })
	return b, true
}

// flatPorts calls fn on every GPU and NIC port, in a fixed order.
func (f *Fabric) flatPorts(fn func(tl *sim.Timeline)) {
	for _, ports := range [...][]*sim.Timeline{f.egress, f.ingress, f.nicOut, f.nicIn} {
		for _, tl := range ports {
			fn(tl)
		}
	}
}

// Shift moves every port's busy horizon d later, with the engine's clock
// (sim.Engine.Shift).
func (f *Fabric) Shift(d sim.Duration) { f.flatPorts(func(tl *sim.Timeline) { tl.Shift(d) }) }

// AppendBusy appends every port's busy time (PublishOccupancy's) to b, a
// mark for RepeatBusy.
func (f *Fabric) AppendBusy(b []int64) []int64 {
	f.flatPorts(func(tl *sim.Timeline) { b = append(b, int64(tl.BusySum())) })
	return b
}

// RepeatBusy adds to every port's busy time n times its gain since mark
// (AppendBusy), for a skip of n cycles, and returns the rest of mark.
func (f *Fabric) RepeatBusy(mark []int64, n int64) []int64 {
	f.flatPorts(func(tl *sim.Timeline) {
		tl.RepeatBusy(sim.Duration(mark[0]), n)
		mark = mark[1:]
	})
	return mark
}
