package bench

// Live progress plumbing: the sweep subcommands install a telemetry.Tracker here
// (once, before any sweep) and every Sweep reports run/cell progress to it.
// Disabled by default — with no tracker installed a sweep pays one RLock and
// nothing per cell. Progress reporting never touches
// cell results or stdout, so sweep output is byte-identical with tracking on
// or off (the read-only-sampling rule of internal/telemetry).

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/telemetry"
)

var (
	progMu    sync.RWMutex
	progTr    *telemetry.Tracker
	progLabel = "sweep"
)

// setProgress installs (or, with nil, removes) the process-wide live
// progress tracker. Call it from the CLI before running sweeps; mid-sweep
// changes affect only subsequent sweeps.
func setProgress(t *telemetry.Tracker) {
	progMu.Lock()
	progTr = t
	progMu.Unlock()
}

// SetProgressLabel names the runs subsequent sweeps register with the
// tracker (default "sweep"). The CLIs set it to their mode string, so
// /debug/runs distinguishes e.g. a chaos severity ramp from a scale ramp.
func SetProgressLabel(label string) {
	progMu.Lock()
	if label != "" {
		progLabel = label
	}
	progMu.Unlock()
}

// StartLive is the sweep subcommands' one-call -live wiring: with a
// non-empty addr it starts the telemetry HTTP server, installs its tracker
// as the process progress sink under label (progress reports it; the
// observed sweep feeds it), arranges for a SIGINT/SIGTERM to print the sweep
// progress and the metrics merged so far to stderr before exiting 130, and
// returns a close func for the caller's defer. An empty addr (flag unset)
// installs nothing and returns a no-op close, so call sites need no
// branching.
func StartLive(addr, label string) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	tracker, srv, err := telemetry.StartLive(addr)
	if err != nil {
		return nil, err
	}
	setProgress(tracker)
	SetProgressLabel(label)
	telemetry.OnInterrupt(func() {
		fmt.Fprintln(os.Stderr, "interrupted mid-sweep")
		tracker.WriteProgress(os.Stderr)
		fmt.Fprint(os.Stderr, tracker.MetricsSnapshot().Render())
	})
	return func() {
		setProgress(nil) // subcommands are plain functions: leave nothing installed
		srv.Close()
	}, nil
}

// progress reports the installed tracker (nil when live telemetry is off).
func progress() *telemetry.Tracker {
	progMu.RLock()
	defer progMu.RUnlock()
	return progTr
}

// progressRun registers one sweep with the installed tracker; nil when
// tracking is off (telemetry handles are nil-safe, but the runner skips
// per-cell label formatting on a nil handle).
func progressRun(total, workers int) *telemetry.LiveRun {
	progMu.RLock()
	t, label := progTr, progLabel
	progMu.RUnlock()
	if t == nil {
		return nil
	}
	return t.StartRun(label, total, workers)
}

// cellLabel names one sweep cell for the per-worker progress view.
func cellLabel(i int) string { return fmt.Sprintf("cell[%d]", i) }
