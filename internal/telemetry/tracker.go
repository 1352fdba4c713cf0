// Package telemetry is the live observation plane: a Tracker that sweep
// runners feed with run progress and per-cell metrics snapshots, a
// FlightBoard collecting the flight recorders of in-flight cells, and an
// HTTP server (server.go) exposing both while a sweep runs.
//
// Everything here is read-only with respect to the simulation: the tracker
// is sampled by HTTP handlers under its own mutex, never by the virtual-time
// hot path, and nothing it produces reaches run stdout — a sweep's output is
// byte-identical with live telemetry enabled or disabled. Wall-clock time
// appears only in telemetry output (uptime, ETA), never in run results.
//
// All entry points are nil-safe: a nil *Tracker hands out nil *LiveRuns
// whose methods no-op, so the bench runner calls the hooks unconditionally
// and pays a single nil check when live telemetry is off.
package telemetry

import (
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Tracker accumulates sweep progress and merged workload metrics for the
// live endpoints. One tracker serves one CLI process; zero value unusable —
// use NewTracker.
type Tracker struct {
	mu      sync.Mutex
	started time.Time
	merged  metrics.Snapshot // workload metrics of completed cells, merged
	runs    []*LiveRun       // all runs this process started, oldest first
	reg     *metrics.Registry
	board   *FlightBoard
}

// NewTracker returns a tracker with an empty flight board and its own
// self-metrics registry (telemetry.* names).
func NewTracker() *Tracker {
	return &Tracker{
		started: time.Now(),
		reg:     metrics.New(),
		board:   newFlightBoard(0),
	}
}

// Flight reports the tracker's flight board (nil on a nil tracker).
func (t *Tracker) Flight() *FlightBoard {
	if t == nil {
		return nil
	}
	return t.board
}

// Registry exposes the tracker's self-metrics registry so embedding servers
// (the what-if service's cache and batcher counters) surface on the same
// /metrics endpoint as the telemetry.* instruments. Nil on a nil tracker.
func (t *Tracker) Registry() *metrics.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// AddSnapshot merges one completed cell's metrics snapshot into the live
// aggregate. Merge is order-insensitive (counters sum, gauges take maxima,
// histograms sum), so cells may report in completion order without making
// /metrics content depend on worker scheduling.
func (t *Tracker) AddSnapshot(s metrics.Snapshot) {
	if t == nil || s.Empty() {
		return
	}
	t.mu.Lock()
	t.merged = metrics.Merge(t.merged, s)
	t.mu.Unlock()
}

// MetricsSnapshot reports the merged workload metrics plus the tracker's own
// telemetry.* instruments, as one snapshot. Empty on a nil tracker.
func (t *Tracker) MetricsSnapshot() metrics.Snapshot {
	if t == nil {
		return metrics.Snapshot{}
	}
	t.mu.Lock()
	merged := t.merged
	t.mu.Unlock()
	return metrics.Merge(merged, t.reg.Snapshot())
}

// StartRun registers a sweep of total cells executed by workers goroutines
// and returns its live handle. A nil tracker returns a nil handle whose
// methods no-op.
func (t *Tracker) StartRun(label string, total, workers int) *LiveRun {
	if t == nil {
		return nil
	}
	r := &LiveRun{
		t: t, label: label, total: total, workers: workers,
		started: time.Now(),
		current: make(map[int]cellRef, workers),
	}
	t.mu.Lock()
	t.runs = append(t.runs, r)
	t.mu.Unlock()
	t.reg.Counter("telemetry.runs.started").Inc()
	return r
}

// cellRef is one worker's in-flight cell.
type cellRef struct {
	cell  int
	label string
	since time.Time
}

// LiveRun is the mutable progress record of one sweep.
type LiveRun struct {
	t       *Tracker
	label   string
	total   int
	workers int
	started time.Time

	mu      sync.Mutex
	done    int
	current map[int]cellRef
	ended   bool
}

// CellStart records that worker picked up cell. Nil-safe.
func (r *LiveRun) CellStart(worker, cell int, label string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.current[worker] = cellRef{cell: cell, label: label, since: time.Now()}
	r.mu.Unlock()
	r.t.reg.Counter("telemetry.cells.started").Inc()
}

// CellDone records that worker finished cell. Nil-safe.
func (r *LiveRun) CellDone(worker, cell int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if ref, ok := r.current[worker]; ok && ref.cell == cell {
		delete(r.current, worker)
		r.t.reg.Histogram("telemetry.cell.wall_ms").Observe(int64(time.Since(ref.since) / time.Millisecond))
	}
	r.done++
	r.mu.Unlock()
	r.t.reg.Counter("telemetry.cells.done").Inc()
}

// End marks the sweep finished. Nil-safe.
func (r *LiveRun) End() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ended = true
	r.current = map[int]cellRef{}
	r.mu.Unlock()
	r.t.reg.Counter("telemetry.runs.ended").Inc()
}

// workerStatus is one worker's in-flight cell in a runStatus.
type workerStatus struct {
	Worker         int     `json:"worker"`
	Cell           int     `json:"cell"`
	Label          string  `json:"label"`
	RunningSeconds float64 `json:"running_seconds"`
}

// runStatus is the point-in-time progress of one sweep, as served by
// /debug/runs.
type runStatus struct {
	Label          string  `json:"label"`
	Total          int     `json:"total"`
	Done           int     `json:"done"`
	Workers        int     `json:"workers"`
	Ended          bool    `json:"ended"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// ETASeconds extrapolates the remaining cells from the mean wall time
	// of the completed ones; negative when no cell has finished yet (no
	// basis for a rate).
	ETASeconds float64        `json:"eta_seconds"`
	Current    []workerStatus `json:"current,omitempty"`
}

// status samples the run at wall-clock instant now.
func (r *LiveRun) status(now time.Time) runStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := runStatus{
		Label: r.label, Total: r.total, Done: r.done, Workers: r.workers,
		Ended:          r.ended,
		ElapsedSeconds: now.Sub(r.started).Seconds(),
		ETASeconds:     -1,
	}
	if r.ended {
		st.ETASeconds = 0
	} else if r.done > 0 && st.ElapsedSeconds > 0 {
		rate := float64(r.done) / st.ElapsedSeconds
		st.ETASeconds = float64(r.total-r.done) / rate
	}
	for w, ref := range r.current {
		st.Current = append(st.Current, workerStatus{
			Worker: w, Cell: ref.cell, Label: ref.label,
			RunningSeconds: now.Sub(ref.since).Seconds(),
		})
	}
	sort.Slice(st.Current, func(i, j int) bool { return st.Current[i].Worker < st.Current[j].Worker })
	return st
}

// Runs samples every run the tracker has seen, oldest first. Empty on a nil
// tracker.
func (t *Tracker) Runs() []runStatus {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	runs := append([]*LiveRun(nil), t.runs...)
	t.mu.Unlock()
	out := make([]runStatus, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.status(now))
	}
	return out
}

// uptime reports the wall time since the tracker was created (0 on nil).
func (t *Tracker) uptime() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.started)
}
