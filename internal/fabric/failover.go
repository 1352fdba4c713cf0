package fabric

// Dead links and route failover. A downed link (DownLink) permanently stops
// admitting transfers on its primary route from a given virtual time; rather
// than deadlocking the traffic, the fabric redirects it onto a fallback
// route with a strictly worse alpha/beta cost:
//
//   - PathSelf: the copy engine is rerouted through a host bounce buffer
//     (cudaMemcpy via pinned host memory) — higher latency, much lower
//     bandwidth.
//   - PathIntra: NVLink/xGMI peer traffic falls back to host-staged copies
//     through PCIe (the classic non-P2P path): latency roughly doubles plus
//     a staging constant, and bandwidth drops to the PCIe fraction.
//   - PathInter: the NIC pair falls back to a secondary (shared) port with
//     extra switch hops.
//
// The failover costs are deliberately multiplicative-plus-additive on the
// healthy cost resolved by the machine model, so the relative ordering of
// backends (the paper's Fig 2-4 crossover story) is preserved under
// failover: every backend on the same route pays the same penalty shape.

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// failover describes the cost penalty of the fallback route used once a
// link on a path is down. Zero-valued factors mean "unchanged".
type failover struct {
	// latencyAdd is the staging constant added to each message.
	latencyAdd sim.Duration
	// latencyFactor scales the healthy latency (alpha); <= 0 means 1.
	latencyFactor float64
	// bandwidthFactor scales the healthy bandwidth (1/beta); <= 0 means 1.
	bandwidthFactor float64
}

// apply maps a healthy link cost onto the fallback route's cost.
func (fo failover) apply(c LinkCost) LinkCost {
	if fo.latencyFactor > 0 {
		c.Latency = sim.Duration(math.Round(float64(c.Latency) * fo.latencyFactor))
	}
	c.Latency += fo.latencyAdd
	if fo.bandwidthFactor > 0 {
		c.BytesPerSec *= fo.bandwidthFactor
	}
	return c
}

// failovers are the fallback-route penalties, indexed by Path. The numbers
// model host-staged copies (intra/self) and a secondary NIC route (inter).
var failovers = [3]failover{
	PathSelf:  {latencyAdd: 2 * sim.Microsecond, latencyFactor: 2, bandwidthFactor: 0.25},
	PathIntra: {latencyAdd: 1500 * sim.Nanosecond, latencyFactor: 2, bandwidthFactor: 0.3},
	PathInter: {latencyAdd: 3 * sim.Microsecond, latencyFactor: 1.5, bandwidthFactor: 0.5},
}

// downLink records one permanently dead route. src/dst of -1 match any
// endpoint (the whole path kind dies).
type downLink struct {
	src, dst int
	path     Path
	at       sim.Time
}

// DownLink marks the route src->dst on the given path as permanently dead
// from virtual time at onward. src and/or dst may be -1 to match any
// endpoint. Transfers booked on a dead route are not blocked; they are
// redirected onto the path's failover route and pay its cost (see failover).
func (f *Fabric) DownLink(src, dst int, path Path, at sim.Time) {
	n := f.NumGPUs()
	if src < -1 || src >= n || dst < -1 || dst >= n {
		panic(fmt.Sprintf("fabric: DownLink(%d, %d) outside %d GPUs", src, dst, n))
	}
	f.downs = append(f.downs, downLink{src: src, dst: dst, path: path, at: at})
}

// LinkDownAt reports whether the src->dst route on path is dead at time at.
func (f *Fabric) LinkDownAt(at sim.Time, src, dst int, path Path) bool {
	for _, d := range f.downs {
		if at < d.at || d.path != path {
			continue
		}
		if (d.src == -1 || d.src == src) && (d.dst == -1 || d.dst == dst) {
			return true
		}
	}
	return false
}

// noteFailover counts one transfer redirected onto a fallback route or
// steered around a dead switch/link, in both the cumulative counter and the
// metrics registry.
func (f *Fabric) noteFailover() {
	f.failoverCount.Add(1)
	if f.m != nil {
		f.m.failover.Inc()
	}
}

// FailoverTransfers reports how many transfers have been redirected onto
// fallback routes — or steered around dead switches and inter-switch links
// by the topology's adaptive routing — so far.
func (f *Fabric) FailoverTransfers() int { return int(f.failoverCount.Load()) }
