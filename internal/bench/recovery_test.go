package bench

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/sim"
)

// crashPlan kills rank 3 of 8 one millisecond in, mid-allreduce, with a
// generous watchdog so a hang would surface as a TimeoutError.
func crashPlan() *faults.Plan {
	return &faults.Plan{
		Crashes:  []faults.RankCrash{{Rank: 3, At: sim.Time(sim.Millisecond)}},
		Lease:    sim.Millisecond,
		Watchdog: sim.Second,
	}
}

// TestRecoveryCrashMidAllreduce is the acceptance scenario: one of eight
// ranks dies mid-run and the survivors complete via Revoke + Shrink on every
// backend, with no timeout.
func TestRecoveryCrashMidAllreduce(t *testing.T) {
	m := machine.Perlmutter()
	for _, backend := range []core.BackendID{core.MPIBackend, core.GpucclBackend, core.GpushmemBackend} {
		t.Run(backend.String(), func(t *testing.T) {
			pt := runRecovery(recoveryConfig{
				model: m, backend: backend, nGPUs: 8, plan: crashPlan(),
			}, &collector{}, "")
			if pt.Err != "" {
				t.Fatalf("run failed: %s", pt.Err)
			}
			if !pt.Completed {
				t.Fatalf("survivors did not complete: %+v", pt)
			}
			if pt.Recoveries < 1 {
				t.Fatalf("expected at least one recovery, got %+v", pt)
			}
			if pt.Survivors != 7 || pt.Crashes != 1 {
				t.Fatalf("wrong survivor accounting: %+v", pt)
			}
			// Detection latency must respect the lease bounds [lease/2, lease).
			if pt.DetectLatency < sim.Millisecond/2 || pt.DetectLatency >= sim.Millisecond {
				t.Fatalf("detect latency %v outside [lease/2, lease)", pt.DetectLatency)
			}
			if pt.RecoveryLatency <= 0 {
				t.Fatalf("no recovery latency measured: %+v", pt)
			}
		})
	}
}

// TestRecoverySweepDeterministicAcrossWorkers runs the same recovery sweep
// at GOMAXPROCS 1 and 8; every field of every point must match bit for bit.
func TestRecoverySweepDeterministicAcrossWorkers(t *testing.T) {
	m := machine.Perlmutter()
	severities := []float64{0, 0.5, 0.75, 1}
	run := func(procs int) []RecoveryPoint {
		setProcs(t, procs)
		return RecoverySweep(nil, m, core.GpucclBackend, 8, severities, 7, 0)
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("sweep differs across worker counts:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	for _, pt := range serial {
		if pt.Err != "" {
			t.Fatalf("severity %g failed: %s", pt.Severity, pt.Err)
		}
		if !pt.Completed {
			t.Fatalf("severity %g did not complete: %+v", pt.Severity, pt)
		}
		if pt.Severity >= 0.5 && pt.Recoveries < 1 {
			t.Fatalf("severity %g crashed ranks but recovered zero times: %+v", pt.Severity, pt)
		}
	}
}

// TestRecoverySweepPartialNodes: a job that does not fill whole nodes draws
// its hard faults over its own ranks, not over its nodes' GPU slots, so the
// sweep completes where it used to crash a rank the job does not have.
func TestRecoverySweepPartialNodes(t *testing.T) {
	m := machine.Perlmutter()
	severities := []float64{0.5, 0.75, 1}
	for _, n := range []int{2, 3, 5, 6, 7} {
		fc := m.FabricConfig(m.NodesFor(n))
		for seed := uint64(0); seed < 16; seed++ {
			for _, sev := range severities {
				plan := faults.GenerateHard(seed, sev, fc, n, 4*sim.Millisecond)
				for _, c := range plan.Crashes {
					if c.Rank >= n {
						t.Fatalf("%d ranks, seed %d, severity %g: crash of rank %d", n, seed, sev, c.Rank)
					}
				}
				for _, ld := range plan.LinkDowns {
					if ld.Src >= n || ld.Dst >= n {
						t.Fatalf("%d ranks, seed %d, severity %g: link down %d->%d", n, seed, sev, ld.Src, ld.Dst)
					}
				}
			}
		}
		for _, pt := range RecoverySweep(nil, m, core.MPIBackend, n, severities, 42, 0) {
			if pt.Err != "" || !pt.Completed || pt.Crashes == 0 {
				t.Errorf("%d ranks, severity %g: %+v; want a completed run with crashes", n, pt.Severity, pt)
			}
		}
	}
}

// TestRecoveryHealthyRunUntouched checks severity-0 behaviour: no crashes,
// no recoveries, full completion.
func TestRecoveryHealthyRunUntouched(t *testing.T) {
	pt := runRecovery(recoveryConfig{
		model: machine.Perlmutter(), backend: core.MPIBackend, nGPUs: 4,
	}, &collector{}, "")
	if !pt.Completed || pt.Recoveries != 0 || pt.Crashes != 0 {
		t.Fatalf("healthy run misbehaved: %+v", pt)
	}
}
