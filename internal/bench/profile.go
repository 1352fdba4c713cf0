package bench

// The profiling harness behind uniconn prof and the -metrics/-profile/-live
// flags of the sweep subcommands: one Collector per sweep cell, frozen into
// CellProfiles, reassembled in cell-index order into a RunProfile whose
// rendered report, metrics JSON, and Chrome trace are byte-identical at any
// sweep worker count.
//
// Ownership rule (see also runner.go): a metrics.Registry and a trace.Log
// are single-engine state. Every cell records only into the Collector Sweep
// hands it — never share one across cells, and never write to a collector
// from outside its cell. Sweep only guarantees determinism for results
// keyed by cell index; per-cell collectors merged in index order inherit
// that guarantee.

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Collector holds one cell's instruments: a private metrics registry and
// span log to hand to that cell's run configuration. Either may be nil.
type Collector struct {
	Metrics *metrics.Registry
	log     *trace.Log

	live *telemetry.Tracker
}

// Finish freezes the collector into an immutable cell profile (empty for a
// cell that recorded nothing) and feeds the cell's metrics to the live
// tracker, if any.
func (c *Collector) Finish(label string, end sim.Time, notes ...string) CellProfile {
	cp := CellProfile{Label: label, end: end, notes: notes}
	if c.Metrics != nil {
		cp.metrics = c.Metrics.Snapshot()
		c.live.AddSnapshot(cp.metrics) // nil-safe
	}
	if c.log != nil {
		cp.spans = c.log.Sorted()
	}
	return cp
}

// Observe is the one carrier of a sweep's observation: the live tracker and
// label its run reports to, and what its cells record, decided once per
// sweep from the shared observability flags: with profile set (-metrics,
// -profile, -json, -trace, the prof subcommand) every cell owns a registry
// and a span log; otherwise, with live telemetry on (-live), a bare registry
// — /metrics wants per-cell counters but nobody asked for spans; otherwise
// nothing. A nil *Observe records and reports nothing.
type Observe struct {
	profile bool
	live    *telemetry.Tracker
	label   string
}

// NewObserve decides for a sweep: profile as above, reporting to live's
// tracker under live's label (live is StartLive's Observe, nil without
// -live).
func NewObserve(live *Observe, profile bool) *Observe {
	o := &Observe{profile: profile}
	if live != nil {
		o.live, o.label = live.live, live.label
	}
	return o
}

// Named returns a copy of o whose sweeps report under label; nil stays nil.
func (o *Observe) Named(label string) *Observe {
	if o == nil {
		return nil
	}
	c := *o
	c.label = label
	return &c
}

// StartLive is the sweep subcommands' one-call -live wiring: it starts the
// telemetry HTTP server on addr, arms a SIGINT/SIGTERM handler that prints
// the sweep progress and merged metrics to stderr before exiting 130, and
// returns the Observe carrying the tracker and label to the command's sweeps
// and a close func, for the caller's defer, that disarms and stops both.
// An empty addr (-live unset) yields a nil Observe and a no-op close.
func StartLive(addr, label string) (*Observe, func(), error) {
	if addr == "" {
		return nil, func() {}, nil
	}
	tracker, srv, err := telemetry.StartLive(addr)
	if err != nil {
		return nil, nil, err
	}
	disarm := telemetry.OnInterrupt(func() {
		fmt.Fprintln(os.Stderr, "interrupted mid-sweep")
		tracker.WriteProgress(os.Stderr)
		fmt.Fprint(os.Stderr, tracker.MetricsSnapshot().Render())
	})
	return &Observe{live: tracker, label: label}, func() {
		disarm()
		srv.Close()
	}, nil
}

// cell allocates the instruments of one cell; Sweep calls it per cell —
// the ownership rule above.
func (o *Observe) cell() *Collector {
	switch {
	case o != nil && o.profile:
		return &Collector{Metrics: metrics.New(), log: trace.New(), live: o.live}
	case o != nil && o.live != nil:
		return &Collector{Metrics: metrics.New(), live: o.live}
	default:
		return &Collector{}
	}
}

// CellProfile is one cell's frozen observability record.
type CellProfile struct {
	Label string
	// end is the cell's final virtual time — the attribution horizon.
	end sim.Time
	// notes carry the cell's headline measurements (latency, bandwidth,
	// per-iteration time), rendered above the analysis tables.
	notes   []string
	metrics metrics.Snapshot
	spans   *trace.View
}

// Spans is the cell's span log (empty for a cell that recorded none).
func (c CellProfile) Spans() *trace.View { return c.spans }

// Transfers counts the fabric transfers in the cell's span log (zero for a
// cell that recorded no spans).
func (c CellProfile) Transfers() int {
	n := 0
	for s := range c.spans.Spans() {
		if s.Kind == trace.KindTransfer {
			n++
		}
	}
	return n
}

// RunProfile is a full profiling run: a title and an ordered set of cell
// profiles.
type RunProfile struct {
	Title string
	Cells []CellProfile
}

// Merged returns the cells' metrics merged in index order (counters and
// histograms sum, gauges keep their high-water mark).
func (rp *RunProfile) Merged() metrics.Snapshot {
	snaps := make([]metrics.Snapshot, len(rp.Cells))
	for i, c := range rp.Cells {
		snaps[i] = c.metrics
	}
	return metrics.Merge(snaps...)
}

// render formats the full text report: per cell the headline notes, the
// critical path, the per-rank time attribution, and the communication
// matrix; then the merged metrics. Everything derives from virtual time and
// name-sorted instruments, so the report is byte-stable.
func (rp *RunProfile) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "==== uniconn-prof: %s ====\n", rp.Title)
	for _, c := range rp.Cells {
		fmt.Fprintf(&b, "\n== cell %s (end %s) ==\n", c.Label, sim.Duration(c.end))
		for _, n := range c.notes {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
		if c.spans.Len() == 0 {
			b.WriteString("(no spans recorded)\n")
			continue
		}
		b.WriteString(trace.CriticalPath(c.spans).Render())
		b.WriteString("per-rank attribution:\n")
		b.WriteString(trace.RenderBreakdown(trace.Attribute(c.spans, c.end)))
		if m := trace.BuildCommMatrix(c.spans); m.N > 0 {
			b.WriteString("comm matrix (bytes(msgs), src row x dst col):\n")
			b.WriteString(m.Render())
		}
	}
	merged := rp.Merged()
	fmt.Fprintf(&b, "\n== merged metrics (%d cells) ==\n", len(rp.Cells))
	if merged.Empty() {
		b.WriteString("(metrics disabled or empty)\n")
	} else {
		b.WriteString(merged.Render())
	}
	return b.String()
}

// WriteReport writes the text report.
func (rp *RunProfile) WriteReport(w io.Writer) error {
	_, err := io.WriteString(w, rp.render())
	return err
}

// WriteMetricsJSON writes the merged metrics snapshot as deterministic JSON.
func (rp *RunProfile) WriteMetricsJSON(w io.Writer) error {
	return rp.Merged().WriteJSON(w)
}

// WriteChromeTrace writes every cell's spans as one Chrome trace-event file,
// one process per cell in index order.
func (rp *RunProfile) WriteChromeTrace(w io.Writer) error {
	cells := make([]trace.ChromeCell, len(rp.Cells))
	for i, c := range rp.Cells {
		cells[i] = trace.ChromeCell{Name: c.Label, Spans: c.spans}
	}
	return trace.WriteChromeCells(w, cells)
}
