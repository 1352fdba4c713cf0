package fabric

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func failoverFabric(tr *trace.Log) *Fabric {
	f := New(Config{Nodes: 2, GPUsPerNode: 2, NICsPerNode: 2})
	f.Trace = tr
	return f
}

var failoverCost = LinkCost{Latency: sim.Microsecond, BytesPerSec: 100e9}

// A downed intra-node link must not block transfers: they complete on the
// failover route, strictly later than on the healthy link.
func TestDownLinkFailsOverWithWorseCost(t *testing.T) {
	healthy := failoverFabric(nil)
	base := healthy.Transfer(0, 0, 1, 1<<20, failoverCost)

	tr := trace.New()
	f := failoverFabric(tr)
	f.DownLink(0, 1, PathIntra, 0)
	got := f.Transfer(0, 0, 1, 1<<20, failoverCost)
	if got <= base {
		t.Fatalf("failover arrival %v not later than healthy %v", got, base)
	}
	if f.FailoverTransfers() != 1 {
		t.Fatalf("FailoverTransfers = %d, want 1", f.FailoverTransfers())
	}
	spans := slices.Collect(tr.Sorted().Spans())
	if len(spans) != 1 || spans[0].Kind != trace.KindTransfer || !strings.HasSuffix(spans[0].Track, "+failover") {
		t.Fatalf("trace track = %q, want intra+failover", spans[0].Track)
	}

	// The reverse direction is a different route and stays healthy.
	before := f.FailoverTransfers()
	f.Transfer(got, 1, 0, 1<<20, failoverCost)
	if f.FailoverTransfers() != before {
		t.Fatal("reverse route unexpectedly failed over")
	}
}

// Before the down time the route is healthy; from the down time on it fails
// over. Wildcard endpoints (-1) match every route of the path kind.
func TestDownLinkTimeAndWildcards(t *testing.T) {
	f := failoverFabric(nil)
	down := sim.Time(500)
	f.DownLink(-1, -1, PathInter, down)
	if f.LinkDownAt(499, 0, 2, PathInter) {
		t.Fatal("link down before its down time")
	}
	if !f.LinkDownAt(500, 0, 2, PathInter) || !f.LinkDownAt(501, 3, 1, PathInter) {
		t.Fatal("wildcard down link did not match inter routes")
	}
	if f.LinkDownAt(501, 0, 1, PathIntra) {
		t.Fatal("down link leaked onto a different path kind")
	}
}

// TryTransfer treats a dead route like Transfer (failover, not stall).
func TestTryTransferOnDeadRoute(t *testing.T) {
	f := failoverFabric(nil)
	f.DownLink(0, 1, PathIntra, 0)
	arrive, stall := f.TryTransfer(0, 0, 1, 4096, failoverCost)
	if stall != nil {
		t.Fatalf("dead route reported stall %v; want failover booking", stall)
	}
	if arrive <= 0 {
		t.Fatal("no arrival time from failover booking")
	}
	if f.FailoverTransfers() != 1 {
		t.Fatalf("FailoverTransfers = %d, want 1", f.FailoverTransfers())
	}
}

// The failover penalty composes multiplicatively with an installed soft
// LinkFault (degraded then failed-over), preserving cost ordering.
func TestFailoverComposesWithLinkFault(t *testing.T) {
	f := failoverFabric(nil)
	f.LinkFault = func(at sim.Time, src, dst int, path Path, c LinkCost) LinkCost {
		c.Latency *= 3
		return c
	}
	f.DownLink(0, 1, PathIntra, 0)
	fo := failovers[PathIntra]
	wantLat := sim.Duration(float64(3*failoverCost.Latency)*fo.latencyFactor) + fo.latencyAdd
	arrive := f.Transfer(0, 0, 1, 0, failoverCost)
	if arrive != sim.Time(wantLat) {
		t.Fatalf("zero-byte arrival %v, want %v (degrade x failover)", arrive, sim.Time(wantLat))
	}
}
