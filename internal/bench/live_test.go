package bench

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/telemetry"
)

// runsOf reports each run tr tracked as "label/total/workers", checking
// that every one of them finished: all cells done, ended, none in flight.
func runsOf(t *testing.T, tr *telemetry.Tracker) []string {
	t.Helper()
	var out []string
	for _, st := range tr.Runs() {
		if st.Done != st.Total || !st.Ended || len(st.Current) != 0 {
			t.Errorf("run %q not finished: %+v", st.Label, st)
		}
		out = append(out, fmt.Sprintf("%s/%d/%d", st.Label, st.Total, st.Workers))
	}
	return out
}

// TestSweepReportsToItsTracker runs sweeps for two trackers side by side,
// and untracked ones beside them, at GOMAXPROCS 1 and 4: each tracker
// receives only the runs of the Observes that carry it, under their labels —
// a Named copy reports under its own label without renaming the original —
// while a nil-Observe sweep, an Observe without a tracker and a bare
// Runner.Run register nothing.
func TestSweepReportsToItsTracker(t *testing.T) {
	trA, trB := telemetry.NewTracker(), telemetry.NewTracker()
	a := NewObserve(&Observe{live: trA, label: "a"}, false)
	b := NewObserve(&Observe{live: trB, label: "b"}, true)
	cell := func(i int, c *collector) (int, CellProfile, error) { return i, c.finish("", 0), nil }
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		var wg sync.WaitGroup
		for _, sweeps := range []func(){
			func() { sweep(a, 6, cell); sweep(a.Named("a-named"), 2, cell) },
			func() { sweep(b, 5, cell) },
			func() {
				sweep(nil, 3, cell)
				sweep(NewObserve(nil, true), 3, cell)
				NewRunner(0).Run(3, func(int) error { return nil })
			},
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sweeps()
			}()
		}
		wg.Wait()
	}
	if got, want := runsOf(t, trA), "a/6/1 a-named/2/1 a/6/4 a-named/2/2"; strings.Join(got, " ") != want {
		t.Errorf("tracker a runs = %v, want %s", got, want)
	}
	if got, want := runsOf(t, trB), "b/5/1 b/5/4"; strings.Join(got, " ") != want {
		t.Errorf("tracker b runs = %v, want %s", got, want)
	}
}

// TestStartLivePairs: two StartLive/close pairs in one process each serve
// their own tracker, which sees only the sweeps of its own Observe; with
// -live unset StartLive starts nothing.
func TestStartLivePairs(t *testing.T) {
	obs, closeLive, err := StartLive("", "unset")
	if err != nil || obs != nil {
		t.Fatalf("StartLive without an address = %v, %v; want nil, nil", obs, err)
	}
	closeLive()
	var trackers []*telemetry.Tracker
	for _, label := range []string{"first", "second"} {
		live, closeLive, err := StartLive("127.0.0.1:0", label)
		if err != nil {
			t.Fatal(err)
		}
		sweep(live, 3, func(i int, c *collector) (int, CellProfile, error) { return i, c.finish("", 0), nil })
		closeLive()
		trackers = append(trackers, live.live)
	}
	for i, want := range []string{"first", "second"} {
		runs := runsOf(t, trackers[i])
		if len(runs) != 1 || !strings.HasPrefix(runs[0], want+"/3/") {
			t.Errorf("StartLive %q tracked %v, want its one sweep", want, runs)
		}
	}
}

// TestRecoverySweepObservability checks the observability add-ons: a
// positive flightDepth captures the post-mortem of faulted cells into their
// points, a live tracker carried by the sweep's Observe accumulates per-cell
// metrics — and neither changes the sweep's measurements relative to a
// sweep without them.
func TestRecoverySweepObservability(t *testing.T) {
	m := machine.Perlmutter()
	sevs := []float64{0, 0.75} // 0.75 generates a crash and a dead link
	const seed = 7

	plain := RecoverySweep(nil, m, core.MPIBackend, 8, sevs, seed, 0)
	tr := telemetry.NewTracker()
	live := RecoverySweep(&Observe{live: tr, label: "recover"}, m, core.MPIBackend, 8, sevs, seed, 64)

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
