package bench

// Acceptance suite for the fault-injection layer (internal/faults): the
// chaos sweeps must be deterministic, a zero-severity plan must be
// indistinguishable from no plan, and rising severity must never make the
// faulted path faster — for every backend.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/spec"
)

// chaosBackends enumerates every backend on Perlmutter (the only seed
// machine with GPUSHMEM, so all three are runnable).
var chaosBackends = []struct {
	name    string
	backend core.BackendID
}{
	{"mpi", core.MPIBackend},
	{"gpuccl", core.GpucclBackend},
	{"gpushmem", core.GpushmemBackend},
}

// chaosRamp is chaosConfig's degrade ramp as spec cells of one workload.
func chaosRamp(backend core.BackendID, workload string, severities []float64) []spec.Spec {
	out := make([]spec.Spec, len(severities))
	for i, sev := range severities {
		out[i] = spec.Spec{Workload: workload, Backend: backend.String(), Native: true, Inter: true,
			Bytes: 8 << 10, Iters: 20, Warmup: 2, Window: 8, FaultMode: spec.FaultDegrade, Severity: sev}
	}
	return out
}

func chaosConfig(backend core.BackendID) NetConfig {
	return NetConfig{
		Model: machine.Perlmutter(), Backend: backend,
		API: machine.APIHost, Native: true, Inter: true,
		Bytes: 8 << 10, Iters: 20, Warmup: 2, window: 8,
	}
}

func TestChaosIdenticalSeedIsBitIdentical(t *testing.T) {
	for _, b := range chaosBackends {
		t.Run(b.name, func(t *testing.T) {
			cfg := chaosConfig(b.backend)
			run := func() sim.Duration {
				c := cfg
				c.faults = faults.Generate(42, 0.5, cfg.model().FabricConfig(2), sim.Second)
				lat, _, err := LatencyRun(c)
				if err != nil {
					t.Fatalf("Latency: %v", err)
				}
				return lat
			}
			if a, bb := run(), run(); a != bb {
				t.Fatalf("same seed+plan diverged: %v vs %v", a, bb)
			}
		})
	}
}

func TestChaosZeroSeverityMatchesBaseline(t *testing.T) {
	for _, b := range chaosBackends {
		t.Run(b.name, func(t *testing.T) {
			cfg := chaosConfig(b.backend)
			base, _, err := LatencyRun(cfg)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			cfg.faults = faults.Generate(42, 0, cfg.model().FabricConfig(2), sim.Second)
			faulted, _, err := LatencyRun(cfg)
			if err != nil {
				t.Fatalf("zero-severity: %v", err)
			}
			if faulted != base {
				t.Fatalf("zero-severity plan changed latency: %v vs baseline %v", faulted, base)
			}
		})
	}
}

func TestChaosSeverityRampIsMonotone(t *testing.T) {
	severities := []float64{0, 0.25, 0.5, 0.75, 1}
	for _, b := range chaosBackends {
		t.Run(b.name, func(t *testing.T) {
			lat, profs, err := SweepSpecs(NewObserve(nil, true), chaosRamp(b.backend, spec.WorkloadNetLatency, severities))
			if err != nil {
				t.Fatalf("latency ramp: %v", err)
			}
			bw, _, err := SweepSpecs(nil, chaosRamp(b.backend, spec.WorkloadNetBandwidth, severities))
			if err != nil {
				t.Fatalf("bandwidth ramp: %v", err)
			}
			if len(lat) != len(severities) || len(bw) != len(severities) {
				t.Fatalf("got %d latency and %d bandwidth values, want %d of each", len(lat), len(bw), len(severities))
			}
			for i := 1; i < len(severities); i++ {
				if lat[i] < lat[i-1] {
					t.Fatalf("latency decreased with severity: %v at %g, then %v at %g",
						sim.Duration(lat[i-1]), severities[i-1], sim.Duration(lat[i]), severities[i])
				}
				if bw[i] > bw[i-1] {
					t.Fatalf("bandwidth rose with severity: %.3g at %g, then %.3g at %g",
						bw[i-1], severities[i-1], bw[i], severities[i])
				}
			}
			if last := len(lat) - 1; lat[last] <= lat[0] {
				t.Fatalf("full-severity latency %v not above baseline %v", sim.Duration(lat[last]), sim.Duration(lat[0]))
			}
			if profs[0].Transfers() == 0 {
				t.Fatal("the latency cell's span log recorded no transfers")
			}
		})
	}
}

func TestChaosWatchdogConvertsStallToTimeout(t *testing.T) {
	// A plan whose NIC never recovers must surface as a structured
	// TimeoutError through the watchdog rather than hanging the run.
	cfg := chaosConfig(core.MPIBackend)
	cfg.faults = &faults.Plan{
		Stalls:   []faults.PortStall{{Node: faults.Any, NIC: faults.Any, Window: faults.Window{End: faults.Forever}}},
		Watchdog: sim.Second,
	}
	_, _, err := LatencyRun(cfg)
	terr, ok := err.(*sim.TimeoutError)
	if !ok {
		t.Fatalf("err = %v (%T), want *sim.TimeoutError", err, err)
	}
	if len(terr.Waiting) == 0 {
		t.Fatalf("timeout carries no parked-proc diagnostics: %+v", terr)
	}
}
