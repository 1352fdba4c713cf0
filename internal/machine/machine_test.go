package machine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func TestTableIShapes(t *testing.T) {
	// The encoded models must match Table I's structural facts.
	p, l, mn := Perlmutter(), LUMI(), MareNostrum5()
	if p.GPUsPerNode != 4 || mn.GPUsPerNode != 4 {
		t.Error("Perlmutter/MareNostrum5 have 4 GPUs per node")
	}
	if l.GPUsPerNode != 8 {
		t.Error("LUMI exposes 8 GCDs per node (paper §VI-C)")
	}
	if !p.HasGPUSHMEM || l.HasGPUSHMEM || !mn.HasGPUSHMEM {
		t.Error("GPUSHMEM availability: Perlmutter yes, LUMI no, MareNostrum5 yes")
	}
	for _, m := range All() {
		if m.NICsPerNode != 4 {
			t.Errorf("%s: all systems have 4 NICs (4x 200Gb/s)", m.Name)
		}
		if m.NICWireBW != 25e9 {
			t.Errorf("%s: 200 Gb/s = 25 GB/s per NIC", m.Name)
		}
	}
	// Intra-node wire ordering: NVLink4 > NVLink3 > Infinity Fabric link.
	if !(mn.IntraWireBW > p.IntraWireBW && p.IntraWireBW > l.IntraWireBW) {
		t.Error("intra-node wire ordering violated")
	}
}

func TestSupportsAndProfilePanics(t *testing.T) {
	l := LUMI()
	if l.Supports(LibGPUSHMEM, APIHost) {
		t.Error("LUMI should not support GPUSHMEM")
	}
	if !l.Supports(LibGPUCCL, APIHost) {
		t.Error("LUMI supports RCCL")
	}
	defer func() {
		if recover() == nil {
			t.Error("Profile for unsupported combination should panic")
		}
	}()
	l.Profile(LibGPUSHMEM, APIDevice)
}

func TestCostMonotoneInSize(t *testing.T) {
	m := Perlmutter()
	f := func(a, b uint32) bool {
		sa, sb := int64(a%(1<<24))+1, int64(b%(1<<24))+1
		if sa > sb {
			sa, sb = sb, sa
		}
		for _, path := range []fabric.Path{fabric.PathIntra, fabric.PathInter} {
			ca := m.Cost(LibMPI, APIHost, path, sa)
			cb := m.Cost(LibMPI, APIHost, path, sb)
			// Effective bandwidth grows with size (saturation curve).
			if cb.BytesPerSec < ca.BytesPerSec {
				return false
			}
			// Transfer time still grows with size.
			if ca.Duration(sa) > cb.Duration(sb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveBandwidthBelowWire(t *testing.T) {
	for _, m := range All() {
		for lib := Lib(0); lib < numLibs; lib++ {
			for _, api := range []API{APIHost, APIDevice} {
				if !m.Supports(lib, api) {
					continue
				}
				for _, size := range []int64{64, 1 << 20, 1 << 28} {
					intra := m.Cost(lib, api, fabric.PathIntra, size)
					inter := m.Cost(lib, api, fabric.PathInter, size)
					if intra.BytesPerSec > m.IntraWireBW {
						t.Errorf("%s %v/%v: intra eff %f above wire", m.Name, lib, api, intra.BytesPerSec)
					}
					if inter.BytesPerSec > m.NICWireBW {
						t.Errorf("%s %v/%v: inter eff %f above wire", m.Name, lib, api, inter.BytesPerSec)
					}
				}
			}
		}
	}
}

func TestDeviceAPILowerLatency(t *testing.T) {
	// The defining property of device-initiated communication.
	for _, m := range []*Model{Perlmutter(), MareNostrum5()} {
		host := m.Profile(LibGPUSHMEM, APIHost)
		dev := m.Profile(LibGPUSHMEM, APIDevice)
		if dev.intra.alpha >= host.intra.alpha || dev.inter.alpha >= host.inter.alpha {
			t.Errorf("%s: device alpha not below host", m.Name)
		}
		if dev.LaunchOverhead != 0 {
			t.Errorf("%s: device API must have no launch overhead", m.Name)
		}
	}
}

func TestKernelTimeModels(t *testing.T) {
	m := Perlmutter()
	small := m.StencilKernelTime(1 << 16)
	big := m.StencilKernelTime(1 << 30)
	if small <= 0 || big <= small {
		t.Fatalf("stencil times %v %v", small, big)
	}
	// 1 GiB at ~1.2 TB/s effective ≈ 0.9 ms.
	if big < sim.Duration(500*sim.Microsecond) || big > sim.Duration(5*sim.Millisecond) {
		t.Fatalf("1GiB stencil sweep = %v, outside plausible range", big)
	}
	if m.SpMVKernelTime(1e6) <= 0 {
		t.Fatal("spmv time must be positive")
	}
}

func TestNodesFor(t *testing.T) {
	m := Perlmutter()
	cases := map[int]int{1: 1, 4: 1, 5: 2, 8: 2, 64: 16}
	for gpus, want := range cases {
		if got := m.NodesFor(gpus); got != want {
			t.Errorf("NodesFor(%d) = %d, want %d", gpus, got, want)
		}
	}
	l := LUMI()
	if l.NodesFor(64) != 8 {
		t.Errorf("LUMI 64 GCDs = %d nodes, want 8 (paper §VI-C)", l.NodesFor(64))
	}
}

func TestByName(t *testing.T) {
	if ByName("Perlmutter") == nil || ByName("LUMI") == nil || ByName("MareNostrum5") == nil {
		t.Fatal("known machines not found")
	}
	if ByName("Frontier") != nil {
		t.Fatal("unknown machine resolved")
	}
	if known, _ := Lookup("Frontier"); known {
		t.Fatal("Lookup knows an unknown machine")
	}
	if n := NodesFor("Frontier", 8); n != 0 {
		t.Fatalf("NodesFor of an unknown machine = %d, want 0", n)
	}
}

// TestCatalogMatchesModels pins the catalog's name, GPUSHMEM flag and node
// count against the model each entry builds: Lookup and NodesFor answer from
// the catalog without building one, so the two must never disagree.
func TestCatalogMatchesModels(t *testing.T) {
	if len(catalog) != len(All()) {
		t.Fatalf("catalog has %d machines, All %d", len(catalog), len(All()))
	}
	for _, m := range All() {
		known, shmem := Lookup(m.Name)
		if !known || shmem != m.HasGPUSHMEM {
			t.Errorf("Lookup(%q) = %v, %v; the model has HasGPUSHMEM %v", m.Name, known, shmem, m.HasGPUSHMEM)
		}
		for _, g := range []int{1, 2, 5, 8, 9, 4096} {
			if got, want := NodesFor(m.Name, g), m.NodesFor(g); got != want {
				t.Errorf("NodesFor(%q, %d) = %d; the model needs %d nodes", m.Name, g, got, want)
			}
		}
		if b := ByName(m.Name); b == nil || b.Name != m.Name {
			t.Errorf("ByName(%q) built %v", m.Name, b)
		}
	}
}

func TestStringers(t *testing.T) {
	if LibMPI.String() != "MPI" || LibGPUCCL.String() != "GPUCCL" || LibGPUSHMEM.String() != "GPUSHMEM" {
		t.Fatal("lib names")
	}
	if APIHost.String() != "Host" || APIDevice.String() != "Device" {
		t.Fatal("api names")
	}
}

// paths are the three fabric path kinds Cost resolves.
var paths = []fabric.Path{fabric.PathSelf, fabric.PathIntra, fabric.PathInter}

// sizeLadder is 8 B, 16 B, ... 64 MiB.
func sizeLadder() []int64 {
	var out []int64
	for s := int64(8); s <= 64<<20; s *= 2 {
		out = append(out, s)
	}
	return out
}

// supported lists every (lib, api) the machine provides.
func supported(m *Model) [][2]int {
	var out [][2]int
	for lib := Lib(0); lib < numLibs; lib++ {
		for api := API(0); api < numAPIs; api++ {
			if m.Supports(lib, api) {
				out = append(out, [2]int{int(lib), int(api)})
			}
		}
	}
	return out
}

// curveCost is the closed form Cost must reproduce bit for bit: a device-
// local copy at half a microsecond and the GPU's copy bandwidth, otherwise
// the path's alpha and wire * effPeak * s / (s + halfSize).
func curveCost(m *Model, p LibProfile, path fabric.Path, bytes int64) fabric.LinkCost {
	c, wire := p.intra, m.IntraWireBW
	switch path {
	case fabric.PathSelf:
		return fabric.LinkCost{Latency: sim.Microsecond / 2, BytesPerSec: m.GPU.localCopyBW}
	case fabric.PathInter:
		c, wire = p.inter, m.NICWireBW
	}
	s := float64(bytes)
	return fabric.LinkCost{Latency: c.alpha, BytesPerSec: wire * (c.effPeak * s / (s + c.halfSize))}
}

// TestCostMatchesCurve: the profile table answers every machine x supported
// (lib, api) x path x 8 B..64 MiB with exactly the closed-form curve, a
// topology or inter-node clone answers identically, and an unsupported
// combination panics naming the machine.
func TestCostMatchesCurve(t *testing.T) {
	for _, m := range All() {
		clone := *m
		clone.Topology = fabric.TopologyConfig{Kind: fabric.TopoFatTree}
		clone.GPUsPerNode, clone.NICsPerNode = 1, 1
		for _, la := range supported(m) {
			lib, api := Lib(la[0]), API(la[1])
			p := m.Profile(lib, api)
			for _, path := range paths {
				for _, size := range sizeLadder() {
					want := curveCost(m, p, path, size)
					if got := m.Cost(lib, api, path, size); got != want {
						t.Fatalf("%s %v/%v %v %dB: Cost = %+v, curve = %+v", m.Name, lib, api, path, size, got, want)
					}
					if got := clone.Cost(lib, api, path, size); got != want {
						t.Fatalf("%s %v/%v %v %dB: clone Cost = %+v, want %+v", m.Name, lib, api, path, size, got, want)
					}
				}
			}
		}
	}
	for _, tc := range []struct {
		m   *Model
		lib Lib
		api API
	}{{LUMI(), LibGPUSHMEM, APIHost}, {Perlmutter(), LibMPI, APIDevice}, {MareNostrum5(), numLibs, APIHost}} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			tc.m.Cost(tc.lib, tc.api, fabric.PathInter, 8)
			return ""
		}()
		if !strings.Contains(msg, "machine "+tc.m.Name+":") {
			t.Errorf("%s %v/%v: Cost panicked with %q, want the machine named", tc.m.Name, tc.lib, tc.api, msg)
		}
	}
}

// TestCostAllocatesNothing guards the per-message lookup every transfer pays.
func TestCostAllocatesNothing(t *testing.T) {
	m := Perlmutter()
	var sink fabric.LinkCost
	allocs := testing.AllocsPerRun(100, func() {
		for _, path := range paths {
			sink = m.Cost(LibGPUSHMEM, APIDevice, path, 4096)
		}
	})
	if allocs != 0 {
		t.Fatalf("Cost allocates %.1f objects per call round, want 0", allocs)
	}
	_ = sink
}

// TestModelConcurrentReaders: every sweep worker reads one shared Model with
// no lock, so concurrent Cost/Profile/Supports must agree with a serial pass
// (and, under -race, touch nothing mutable).
func TestModelConcurrentReaders(t *testing.T) {
	m := MareNostrum5()
	sizes := sizeLadder()
	type key struct {
		lib  Lib
		api  API
		path fabric.Path
		size int64
	}
	want := map[key]fabric.LinkCost{}
	profiles := map[[2]int]LibProfile{}
	for _, la := range supported(m) {
		profiles[la] = m.Profile(Lib(la[0]), API(la[1]))
		for _, path := range paths {
			for _, size := range sizes {
				k := key{Lib(la[0]), API(la[1]), path, size}
				want[k] = m.Cost(k.lib, k.api, path, size)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, w := range want {
				if !m.Supports(k.lib, k.api) || m.Profile(k.lib, k.api) != profiles[[2]int{int(k.lib), int(k.api)}] {
					t.Errorf("%v/%v: concurrent Supports/Profile disagree with the serial pass", k.lib, k.api)
					return
				}
				if got := m.Cost(k.lib, k.api, k.path, k.size); got != w {
					t.Errorf("%+v: concurrent Cost = %+v, serial %+v", k, got, w)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkCost is the per-message link-cost lookup: a table read and the
// saturation curve.
func BenchmarkCost(b *testing.B) {
	m := Perlmutter()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		m.Cost(LibMPI, APIHost, fabric.PathInter, int64(8+8*(i&1023)))
	}
}
