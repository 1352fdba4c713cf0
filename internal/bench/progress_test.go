package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/telemetry"
)

// TestRunnerReportsProgress wires a tracker into the runner and checks both
// execution paths (serial and pooled) report run and cell progress.
func TestRunnerReportsProgress(t *testing.T) {
	tr := telemetry.NewTracker()
	setProgress(tr)
	SetProgressLabel("progress-test")
	defer setProgress(nil)

	for _, workers := range []int{1, 4} {
		if err := NewRunner(workers).Run(6, func(i int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	runs := tr.Runs()
	if len(runs) != 2 {
		t.Fatalf("tracked %d runs, want 2", len(runs))
	}
	for i, st := range runs {
		if st.Label != "progress-test" || st.Total != 6 || st.Done != 6 || !st.Ended {
			t.Errorf("run %d status wrong: %+v", i, st)
		}
		if len(st.Current) != 0 {
			t.Errorf("run %d still has in-flight cells: %+v", i, st.Current)
		}
	}
	if runs[0].Workers != 1 || runs[1].Workers != 4 {
		t.Errorf("worker counts = %d, %d; want 1, 4", runs[0].Workers, runs[1].Workers)
	}
}

// TestRecoverySweepObservability checks the observability add-ons: a
// positive flightDepth captures the post-mortem of faulted cells into their
// points, a live tracker accumulates per-cell metrics — and neither changes
// the sweep's measurements relative to a sweep without them.
func TestRecoverySweepObservability(t *testing.T) {
	m := machine.Perlmutter()
	sevs := []float64{0, 0.75} // 0.75 generates a crash and a dead link
	const seed = 7

	plain := RecoverySweep(m, core.MPIBackend, 8, sevs, seed, 0)
	tr := telemetry.NewTracker()
	setProgress(tr)
	defer setProgress(nil)
	live := RecoverySweep(m, core.MPIBackend, 8, sevs, seed, 64)

	if len(live) != len(plain) {
		t.Fatalf("point counts differ: %d vs %d", len(live), len(plain))
	}
	for i := range live {
		got, want := live[i], plain[i]
		got.FlightDump = ""
		if got != want {
			t.Errorf("severity %v: observed point differs from plain sweep:\n got %+v\nwant %+v",
				sevs[i], got, want)
		}
	}
	if live[0].FlightDump != "" {
		t.Errorf("fault-free cell dumped a post-mortem:\n%s", live[0].FlightDump)
	}
	if !strings.Contains(live[1].FlightDump, "flight recorder:") {
		t.Errorf("faulted cell missing post-mortem, dump: %q", live[1].FlightDump)
	}
	if live[1].Crashes == 0 {
		t.Fatalf("severity 0.75 crashed nobody: %+v", live[1])
	}

	snap := tr.MetricsSnapshot()
	if snap.Empty() {
		t.Fatal("live tracker accumulated no metrics")
	}
	var sawCrash bool
	for _, c := range snap.Counters {
		if c.Name == "core.crashes" && c.Value > 0 {
			sawCrash = true
		}
	}
	if !sawCrash {
		t.Errorf("live metrics missing core.crashes, counters: %+v", snap.Counters)
	}
	var board strings.Builder
	if err := tr.Flight().Dump(&board); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(board.String(), "MPI sev=0.75") {
		t.Errorf("flight board missing the faulted cell:\n%s", board.String())
	}
}
