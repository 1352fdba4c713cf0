package fabric

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testFabric() *Fabric {
	return New(Config{Nodes: 2, GPUsPerNode: 4, NICsPerNode: 2})
}

func TestPathClassification(t *testing.T) {
	f := testFabric()
	cases := []struct {
		src, dst int
		want     Path
	}{
		{0, 0, PathSelf},
		{0, 3, PathIntra},
		{4, 7, PathIntra},
		{0, 4, PathInter},
		{3, 5, PathInter},
	}
	for _, c := range cases {
		if got := f.PathBetween(c.src, c.dst); got != c.want {
			t.Errorf("path(%d,%d) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestNodeLocalGlobal(t *testing.T) {
	f := testFabric()
	for g := 0; g < f.NumGPUs(); g++ {
		if f.Node(g)*f.cfg.GPUsPerNode+f.Local(g) != g {
			t.Fatalf("round trip failed for gpu %d", g)
		}
	}
	if f.NumGPUs() != 8 {
		t.Fatalf("gpus = %d", f.NumGPUs())
	}
}

func TestNICSharing(t *testing.T) {
	// 4 GPUs share 2 NICs per node: GPUs 0,1 → NIC 0; GPUs 2,3 → NIC 1.
	f := testFabric()
	if f.nic(0) != f.nic(1) || f.nic(2) != f.nic(3) {
		t.Fatal("expected pairwise NIC sharing")
	}
	if f.nic(0) == f.nic(2) {
		t.Fatal("expected distinct NICs for distant GPUs")
	}
	if f.nic(4) == f.nic(0) {
		t.Fatal("NICs must be per node")
	}
}

func TestTransferTimingLatencyPlusBandwidth(t *testing.T) {
	f := testFabric()
	cost := LinkCost{Latency: 1000, BytesPerSec: 1e9} // 1us, 1 GB/s
	end := f.Transfer(0, 0, 1, 1000, cost)            // 1000 B at 1 GB/s = 1us
	if end != sim.Time(1000+1000) {
		t.Fatalf("end = %v, want 2000", end)
	}
}

func TestTransferContentionSerializesOnEgress(t *testing.T) {
	f := testFabric()
	cost := LinkCost{Latency: 0, BytesPerSec: 1e9}
	end1 := f.Transfer(0, 0, 1, 1000, cost)
	end2 := f.Transfer(0, 0, 2, 1000, cost) // same egress port: queues
	if end2 != end1+1000 {
		t.Fatalf("second transfer ends at %v, want %v", end2, end1+1000)
	}
	// A transfer on completely separate ports is unaffected.
	end3 := f.Transfer(0, 2, 3, 1000, cost)
	if end3 >= end2 {
		t.Fatalf("independent ports serialized: %v >= %v", end3, end2)
	}
}

func TestInterNodeContentionOnSharedNIC(t *testing.T) {
	f := testFabric()
	cost := LinkCost{Latency: 0, BytesPerSec: 1e9}
	// GPUs 0 and 1 share NIC 0.
	end1 := f.Transfer(0, 0, 4, 1000, cost)
	end2 := f.Transfer(0, 1, 5, 1000, cost)
	if end2 != end1+1000 {
		t.Fatalf("shared-NIC transfers should serialize: %v then %v", end1, end2)
	}
	// GPU 2 uses NIC 1 — concurrent. (Destination NICs differ too: 4→nic of
	// node1 slot0, 6→node1 slot1.)
	end3 := f.Transfer(0, 2, 6, 1000, cost)
	if end3 != 1000 {
		t.Fatalf("independent NIC serialized: end3 = %v", end3)
	}
}

func TestLinkCostDuration(t *testing.T) {
	c := LinkCost{Latency: 5, BytesPerSec: 2e9}
	if d := c.Duration(2000); d != 1000 {
		t.Fatalf("duration = %v, want 1000", d)
	}
	if d := c.Duration(0); d != 0 {
		t.Fatalf("zero bytes duration = %v", d)
	}
	if d := (LinkCost{}).Duration(100); d != 0 {
		t.Fatalf("zero bandwidth duration = %v", d)
	}
}

func TestStatsAccumulate(t *testing.T) {
	f := testFabric()
	cost := LinkCost{Latency: 0, BytesPerSec: 1e9}
	f.Transfer(0, 0, 1, 5000, cost)
	if f.egress[0].BusySum() != 5000 || f.ingress[1].BusySum() != 5000 {
		t.Fatalf("stats %v %v", f.egress[0].BusySum(), f.ingress[1].BusySum())
	}
	if f.egress[2].BusySum() != 0 {
		t.Fatalf("untouched port busy: %v", f.egress[2].BusySum())
	}
}

func TestTransferMonotoneInSizeProperty(t *testing.T) {
	// Larger messages never arrive earlier on a fresh fabric.
	f := func(a, b uint32) bool {
		sa, sb := int64(a%(1<<20))+1, int64(b%(1<<20))+1
		if sa > sb {
			sa, sb = sb, sa
		}
		cost := LinkCost{Latency: 700, BytesPerSec: 5e9}
		fa := New(Config{Nodes: 2, GPUsPerNode: 2, NICsPerNode: 2})
		fb := New(Config{Nodes: 2, GPUsPerNode: 2, NICsPerNode: 2})
		return fa.Transfer(0, 0, 2, sa, cost) <= fb.Transfer(0, 0, 2, sb, cost)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelfCopyOccupiesBothPorts(t *testing.T) {
	// A device-local copy holds the GPU's own egress AND ingress ports
	// (one copy engine out, one in), so back-to-back local copies
	// serialize and a local copy contends with incoming intra-node
	// traffic.
	f := testFabric()
	cost := LinkCost{Latency: 0, BytesPerSec: 1e9}
	end1 := f.Transfer(0, 0, 0, 1000, cost)
	end2 := f.Transfer(0, 0, 0, 1000, cost) // second local copy queues
	if end1 != 1000 || end2 != 2000 {
		t.Fatalf("local copies end at %v, %v; want 1000, 2000", end1, end2)
	}
	if f.egress[0].BusySum() != 2000 || f.ingress[0].BusySum() != 2000 {
		t.Fatalf("self-copy port busy egress=%v ingress=%v, want 2000 each",
			f.egress[0].BusySum(), f.ingress[0].BusySum())
	}
	// Incoming intra-node traffic into GPU 0 contends with the local
	// copies on the ingress port.
	end3 := f.Transfer(0, 1, 0, 1000, cost)
	if end3 != 3000 {
		t.Fatalf("incoming transfer ends at %v, want 3000 (after local copies)", end3)
	}
}

func TestLinkFaultHookDegradesTransfers(t *testing.T) {
	f := testFabric()
	cost := LinkCost{Latency: 1000, BytesPerSec: 1e9}
	healthy := f.Transfer(0, 0, 1, 1000, cost) // 1us occupancy + 1us latency
	f2 := testFabric()
	f2.LinkFault = func(at sim.Time, src, dst int, path Path, c LinkCost) LinkCost {
		if path != PathIntra {
			t.Fatalf("hook saw path %v, want intra", path)
		}
		c.Latency *= 2
		c.BytesPerSec /= 2
		return c
	}
	degraded := f2.Transfer(0, 0, 1, 1000, cost)
	if healthy != 2000 || degraded != 4000 {
		t.Fatalf("healthy = %v, degraded = %v; want 2000, 4000", healthy, degraded)
	}
}

func TestStallNICShiftsTransfer(t *testing.T) {
	f := testFabric()
	f.StallNIC(0, 0, 0, 5000) // NIC 0 of node 0 down for the first 5us
	cost := LinkCost{Latency: 0, BytesPerSec: 1e9}
	// GPU 0 uses node 0's NIC 0: admission waits for the window to end.
	end := f.Transfer(0, 0, 4, 1000, cost)
	if end != 6000 {
		t.Fatalf("stalled transfer ends at %v, want 6000", end)
	}
	// GPU 2 uses NIC 1 — unaffected.
	if end := f.Transfer(0, 2, 6, 1000, cost); end != 1000 {
		t.Fatalf("unstalled transfer ends at %v, want 1000", end)
	}
}

func TestTryTransferRejectsDuringStall(t *testing.T) {
	f := testFabric()
	f.StallNIC(0, 0, 1000, 5000)
	cost := LinkCost{Latency: 0, BytesPerSec: 1e9}
	// Before the window: admitted.
	arrive, stall := f.TryTransfer(0, 0, 4, 1000, cost)
	if stall != nil || arrive != 1000 {
		t.Fatalf("pre-stall TryTransfer = %v, %v", arrive, stall)
	}
	// Inside the window: rejected with the readmission time.
	_, stall = f.TryTransfer(2000, 0, 4, 1000, cost)
	if stall == nil || stall.Until != 5000 {
		t.Fatalf("in-stall TryTransfer stall = %v, want Until 5000", stall)
	}
	// The destination NIC being stalled also rejects.
	f.StallNIC(1, 0, 1000, 7000)
	_, stall = f.TryTransfer(6000, 2, 4, 1000, cost)
	if stall == nil || stall.Until != 7000 {
		t.Fatalf("dst-stall TryTransfer stall = %v, want Until 7000", stall)
	}
	// After both windows: admitted again.
	if _, stall = f.TryTransfer(7000, 0, 4, 1000, cost); stall != nil {
		t.Fatalf("post-stall TryTransfer rejected: %v", stall)
	}
}

// TestZeroNICCountPanics pins the constructor contract: an unset (or
// negative) NICsPerNode is a configuration bug and must fail loudly at
// construction, not silently inherit the GPU count. Callers that want a
// default go through machine.Model.FabricConfig, which fills in 1.
func TestZeroNICCountPanics(t *testing.T) {
	for _, nics := range []int{0, -3} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("New with NICsPerNode=%d did not panic", nics)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "NICsPerNode") {
					t.Fatalf("New with NICsPerNode=%d panicked with %v, want a NICsPerNode message", nics, r)
				}
			}()
			New(Config{Nodes: 1, GPUsPerNode: 4, NICsPerNode: nics})
		}()
	}
}

// TestTransferBoundsPanic pins the GPU-id validation of the booking API: an
// out-of-range id must panic with a message naming the id and the valid
// range, on Transfer and PathBetween alike.
func TestTransferBoundsPanic(t *testing.T) {
	f := New(Config{Nodes: 2, GPUsPerNode: 4, NICsPerNode: 1}) // ids [0, 8)
	cost := LinkCost{Latency: 100, BytesPerSec: 1e9}
	cases := []struct {
		name string
		call func()
	}{
		{"Transfer src", func() { f.Transfer(0, -1, 0, 8, cost) }},
		{"Transfer dst", func() { f.Transfer(0, 0, 8, 8, cost) }},
		{"PathBetween src", func() { f.PathBetween(8, 0) }},
		{"PathBetween dst", func() { f.PathBetween(0, -2) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic for out-of-range GPU id", tc.name)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "outside [0, 8)") {
					t.Fatalf("%s: panic %v, want message naming range [0, 8)", tc.name, r)
				}
			}()
			tc.call()
		}()
	}
}

// TestNICMappingBalanced sweeps every (GPUsPerNode, NICsPerNode) pair in
// 1..8 — including NICs > GPUs and non-divisible ratios — and checks the
// GPU→NIC assignment invariants: every index in range, the spread between
// the most- and least-loaded NIC at most one, and min(GPUs, NICs) distinct
// NICs in use (no port left idle while another is doubly loaded).
func TestNICMappingBalanced(t *testing.T) {
	for gpus := 1; gpus <= 8; gpus++ {
		for nics := 1; nics <= 8; nics++ {
			f := New(Config{Nodes: 3, GPUsPerNode: gpus, NICsPerNode: nics})
			// Check node 1 (an interior node) so a global/local indexing
			// slip cannot hide behind node 0's zero offsets.
			load := make(map[int]int)
			for l := 0; l < gpus; l++ {
				idx := f.nic(1*gpus + l)
				if idx < 1*nics || idx >= 2*nics {
					t.Fatalf("G=%d N=%d: GPU %d mapped to NIC %d outside node 1's [%d, %d)",
						gpus, nics, l, idx, nics, 2*nics)
				}
				load[idx-nics]++
			}
			min, max := gpus, 0
			for i := 0; i < nics; i++ {
				if load[i] < min {
					min = load[i]
				}
				if load[i] > max {
					max = load[i]
				}
			}
			used := len(load)
			want := gpus
			if nics < want {
				want = nics
			}
			if used != want {
				t.Fatalf("G=%d N=%d: %d distinct NICs used, want %d", gpus, nics, used, want)
			}
			if nics <= gpus && max-min > 1 {
				t.Fatalf("G=%d N=%d: NIC load spread %d (min %d, max %d)", gpus, nics, max-min, min, max)
			}
		}
	}
}

// TestLinkCostDurationRounds pins the float→virtual-time conversion of port
// occupancy: half-away-from-zero rounding to the nearest nanosecond, not
// truncation. With truncation, a bandwidth that yields 2.9999…ns of wire
// time booked 2ns, and the shave compounded across every reservation of a
// long serialized chain.
func TestLinkCostDurationRounds(t *testing.T) {
	cases := []struct {
		bytes int64
		bps   float64
		want  sim.Duration
	}{
		// 3 bytes at 1 GB/s = exactly 3ns.
		{3, 1e9, 3},
		// 1 byte at 0.3 GB/s = 3.33…ns → 3ns (down).
		{1, 0.3e9, 3},
		// 1 byte at 0.4 GB/s = 2.5ns → 3ns (half rounds away from zero);
		// truncation gave 2ns.
		{1, 0.4e9, 3},
		// 7 bytes at 2 GB/s = 3.5ns → 4ns; truncation gave 3ns.
		{7, 2e9, 4},
		// 999999999 bytes at 1 GB/s = 0.999999999s → just under a second.
		{999999999, 1e9, sim.Duration(999999999)},
		{0, 1e9, 0},
		{-5, 1e9, 0},
		{8, 0, 0},
	}
	for _, c := range cases {
		got := LinkCost{BytesPerSec: c.bps}.Duration(c.bytes)
		if got != c.want {
			t.Errorf("Duration(%d bytes @ %.2g B/s) = %v, want %v", c.bytes, c.bps, got, c.want)
		}
	}
}
