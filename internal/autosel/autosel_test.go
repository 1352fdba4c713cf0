package autosel

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// advisors caches calibrations across tests (calibration is deterministic).
var advisors = map[string]*Advisor{}

func calibrated(t *testing.T, m *machine.Model) *Advisor {
	t.Helper()
	if a, ok := advisors[m.Name]; ok {
		return a
	}
	a, err := Calibrate(m, []int64{8, 1 << 10, 64 << 10, 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	advisors[m.Name] = a
	return a
}

func TestRecommendSmallMessagesPerlmutter(t *testing.T) {
	a := calibrated(t, machine.Perlmutter())
	// §II-C / Fig. 2: the device-initiated path has the lowest tiny-
	// message latency on NVSHMEM-equipped machines.
	c, v := a.Recommend(8, false, MinLatency)
	if c.backend != core.GpushmemBackend || c.api != machine.APIDevice {
		t.Fatalf("8B intra winner = %v (%.0fns)", c, v)
	}
	// Large intra-node bandwidth belongs to GPUCCL.
	c, _ = a.Recommend(4<<20, false, MaxBandwidth)
	if c.backend != core.GpucclBackend {
		t.Fatalf("4MiB intra bandwidth winner = %v", c)
	}
}

func TestRecommendLUMIHasNoShmem(t *testing.T) {
	a := calibrated(t, machine.LUMI())
	for _, inter := range []bool{false, true} {
		for _, size := range []int64{8, 4 << 20} {
			c, _ := a.Recommend(size, inter, MinLatency)
			if c.backend == core.GpushmemBackend {
				t.Fatalf("LUMI recommended GPUSHMEM (%v)", c)
			}
		}
	}
	// RCCL's launch overhead means MPI wins small messages on LUMI.
	c, _ := a.Recommend(8, false, MinLatency)
	if c.backend != core.MPIBackend {
		t.Fatalf("LUMI 8B winner = %v, want MPI", c)
	}
}

func TestCrossoverExists(t *testing.T) {
	// "No single library wins": somewhere in the sweep the latency
	// recommendation must change on Perlmutter.
	a := calibrated(t, machine.Perlmutter())
	if x := a.Crossover(false, MaxBandwidth); x == 0 {
		t.Fatal("no bandwidth crossover found intra-node")
	}
}

func TestInterpolationBetweenProbes(t *testing.T) {
	a := calibrated(t, machine.Perlmutter())
	// A size strictly between probes must yield a value between the
	// surrounding probe values for a fixed candidate.
	tb := a.tables[false][0]
	v0 := a.valueAt(tb, 1<<10, MinLatency)
	v1 := a.valueAt(tb, 64<<10, MinLatency)
	vm := a.valueAt(tb, 8<<10, MinLatency)
	lo, hi := v0, v1
	if lo > hi {
		lo, hi = hi, lo
	}
	if vm < lo || vm > hi {
		t.Fatalf("interpolated %v outside [%v, %v]", vm, lo, hi)
	}
	// Clamping at the ends.
	if a.valueAt(tb, 1, MinLatency) != a.valueAt(tb, 8, MinLatency) {
		t.Fatal("below-range not clamped")
	}
	if a.valueAt(tb, 1<<30, MinLatency) != a.valueAt(tb, 4<<20, MinLatency) {
		t.Fatal("above-range not clamped")
	}
}

func TestReportRenders(t *testing.T) {
	a := calibrated(t, machine.MareNostrum5())
	rep := a.Report()
	for _, want := range []string{"MareNostrum5", "intra-node", "inter-node", "GB/s"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestMetricStrings(t *testing.T) {
	if MinLatency.String() != "min-latency" || MaxBandwidth.String() != "max-bandwidth" {
		t.Fatal("metric names")
	}
	c := Candidate{core.GpushmemBackend, machine.APIDevice}
	if c.String() != "GPUSHMEM(device)" {
		t.Fatalf("candidate string = %s", c)
	}
}
