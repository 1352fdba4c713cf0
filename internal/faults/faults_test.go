package faults

import (
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// injects reports whether the plan injects any fault (watchdog aside).
func injects(p *Plan) bool {
	return p != nil && len(p.Links)+len(p.Stalls)+len(p.SlowRanks)+len(p.Crashes)+
		len(p.LinkDowns)+len(p.SwitchCrashes)+len(p.InterLinkDowns) > 0
}

func TestRandDeterministicPerSite(t *testing.T) {
	a := newRand(42, "link/inter")
	b := newRand(42, "link/inter")
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatalf("same (seed, site) diverged at draw %d", i)
		}
	}
	// Different sites (and different seeds) decorrelate.
	c := newRand(42, "link/intra")
	d := newRand(43, "link/inter")
	ref := newRand(42, "link/inter")
	if c.next() == ref.next() {
		t.Fatal("site did not change the stream")
	}
	if d.next() == newRand(42, "link/inter").next() {
		t.Fatal("seed did not change the stream")
	}
	for i := 0; i < 1000; i++ {
		f := a.unit()
		if f < 0 || f >= 1 {
			t.Fatalf("unit() = %v outside [0,1)", f)
		}
		n := a.intn(7)
		if n < 0 || n >= 7 {
			t.Fatalf("intn(7) = %d", n)
		}
		v := a.between(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("between(2,5) = %v", v)
		}
	}
}

func TestWindowContains(t *testing.T) {
	w := Window{Start: 100, End: 200}
	for _, c := range []struct {
		t  sim.Time
		in bool
	}{{99, false}, {100, true}, {199, true}, {200, false}} {
		if w.Contains(c.t) != c.in {
			t.Errorf("Contains(%v) = %v", c.t, !c.in)
		}
	}
	if !always.Contains(0) || !always.Contains(Forever-1) {
		t.Fatal("always must span the whole run")
	}
}

func TestLinkCostAtMatchingAndComposition(t *testing.T) {
	p := &Plan{Links: []LinkFault{
		{Src: Any, Dst: Any, Path: fabric.PathInter, Window: Window{0, 1000},
			LatencyFactor: 2, BandwidthFactor: 0.5},
		{Src: 3, Dst: Any, Path: anyPath, Window: always, LatencyFactor: 3},
	}}
	base := fabric.LinkCost{Latency: 100, BytesPerSec: 1e9}

	// Inside the window, inter path, src 3: both faults compose.
	got := p.LinkCostAt(500, 3, 7, fabric.PathInter, base)
	if got.Latency != 600 || got.BytesPerSec != 5e8 {
		t.Fatalf("composed cost = %+v", got)
	}
	// Outside the window only the src-3 fault applies.
	got = p.LinkCostAt(1000, 3, 7, fabric.PathInter, base)
	if got.Latency != 300 || got.BytesPerSec != 1e9 {
		t.Fatalf("post-window cost = %+v", got)
	}
	// Non-matching src, intra path: untouched.
	got = p.LinkCostAt(500, 0, 1, fabric.PathIntra, base)
	if got != base {
		t.Fatalf("unmatched cost = %+v", got)
	}
	// Nil plan and zero factors are identity.
	if got := (*Plan)(nil).LinkCostAt(0, 0, 1, fabric.PathIntra, base); got != base {
		t.Fatalf("nil plan rewrote cost: %+v", got)
	}
	zero := &Plan{Links: []LinkFault{{Src: Any, Dst: Any, Path: anyPath, Window: always}}}
	if got := zero.LinkCostAt(0, 0, 1, fabric.PathIntra, base); got != base {
		t.Fatalf("zero factors rewrote cost: %+v", got)
	}
}

func TestComputeFactor(t *testing.T) {
	p := &Plan{SlowRanks: []SlowRank{
		{Rank: 2, Factor: 2, Window: Window{0, 1000}},
		{Rank: Any, Factor: 1.5, Window: Window{500, 2000}},
	}}
	if f := p.ComputeFactor(100, 2); f != 2 {
		t.Fatalf("factor = %v, want 2", f)
	}
	if f := p.ComputeFactor(600, 2); f != 3 {
		t.Fatalf("composed factor = %v, want 3", f)
	}
	if f := p.ComputeFactor(600, 0); f != 1.5 {
		t.Fatalf("wildcard factor = %v, want 1.5", f)
	}
	if f := p.ComputeFactor(3000, 2); f != 1 {
		t.Fatalf("expired factor = %v, want 1", f)
	}
	if f := (*Plan)(nil).ComputeFactor(0, 0); f != 1 {
		t.Fatalf("nil plan factor = %v", f)
	}
}

func TestApplyStallsWildcards(t *testing.T) {
	f := fabric.New(fabric.Config{Nodes: 2, GPUsPerNode: 2, NICsPerNode: 2})
	p := &Plan{Stalls: []PortStall{{Node: Any, NIC: Any, Window: Window{0, 1000}}}}
	p.ApplyStalls(f)
	cost := fabric.LinkCost{BytesPerSec: 1e9}
	// Every inter-node route is blocked until 1000.
	if end := f.Transfer(0, 0, 2, 1000, cost); end != 2000 {
		t.Fatalf("transfer ends at %v, want 2000", end)
	}
	// Intra-node traffic does not touch NICs and is unaffected.
	if end := f.Transfer(0, 0, 1, 1000, cost); end != 1000 {
		t.Fatalf("intra transfer ends at %v, want 1000", end)
	}
}

func TestDegradeRamp(t *testing.T) {
	if injects(Degrade(fabric.PathInter, 0)) {
		t.Fatal("severity 0 must be an empty plan")
	}
	base := fabric.LinkCost{Latency: 1000, BytesPerSec: 1e9}
	prevLat := sim.Duration(0)
	prevBW := 2e9
	for _, sev := range []float64{0, 0.25, 0.5, 0.75, 1} {
		p := Degrade(fabric.PathInter, sev)
		c := p.LinkCostAt(0, 0, 1, fabric.PathInter, base)
		if c.Latency < prevLat || c.BytesPerSec > prevBW {
			t.Fatalf("ramp not monotone at severity %g: %+v", sev, c)
		}
		prevLat, prevBW = c.Latency, c.BytesPerSec
		// The degraded path is the only one touched.
		if got := p.LinkCostAt(0, 0, 1, fabric.PathIntra, base); got != base {
			t.Fatalf("severity %g degraded the intra path: %+v", sev, got)
		}
	}
}

func TestGenerateDeterministicAndSeverityZero(t *testing.T) {
	cfg := fabric.Config{Nodes: 2, GPUsPerNode: 2, NICsPerNode: 2}
	a := Generate(7, 0.6, cfg, sim.Second)
	b := Generate(7, 0.6, cfg, sim.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n%+v\n%+v", a, b)
	}
	if c := Generate(8, 0.6, cfg, sim.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	if injects(Generate(7, 0, cfg, sim.Second)) {
		t.Fatal("severity 0 must generate an empty plan")
	}
	if !injects(a) || len(a.Stalls) == 0 || len(a.SlowRanks) != 1 {
		t.Fatalf("generated plan underpopulated: %+v", a)
	}
	for _, lf := range a.Links {
		if lf.LatencyFactor < 1 || lf.BandwidthFactor > 1 || lf.BandwidthFactor <= 0 {
			t.Fatalf("generated link fault not degrading: %+v", lf)
		}
	}
	for _, st := range a.Stalls {
		if st.Window.End <= st.Window.Start {
			t.Fatalf("generated empty stall window: %+v", st)
		}
	}
}
