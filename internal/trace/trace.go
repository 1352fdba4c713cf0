// Package trace records virtual-time execution spans (kernels, stream
// operations, fabric transfers) so runs can be inspected, summarized, or
// exported in Chrome trace-event JSON for chrome://tracing.
//
// The tracer is deliberately dumb and allocation-friendly: producers append
// spans; analysis happens afterwards. A nil *Log is a valid, disabled
// tracer, so instrumentation sites need no conditionals.
package trace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/sim"
)

// Kind classifies a span.
type Kind int

// Span kinds.
const (
	kindKernel Kind = iota
	KindStreamOp
	KindTransfer
	kindHost
)

func (k Kind) String() string {
	switch k {
	case kindKernel:
		return "kernel"
	case KindStreamOp:
		return "stream-op"
	case KindTransfer:
		return "transfer"
	case kindHost:
		return "host"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Span is one recorded interval.
type Span struct {
	Kind  Kind
	Label string
	// Track identifies the resource the span ran on (GPU id, stream
	// name, link name); it becomes the row in timeline renderings.
	Track string
	Start sim.Time
	End   sim.Time
	// Bytes is the payload size for transfers (0 otherwise).
	Bytes int64
	// Rank is the global rank (GPU id) the span is attributed to: the
	// executing device for kernels and stream ops, the source for
	// transfers. Producers that predate rank attribution leave it 0.
	Rank int
	// Src and Dst are the endpoint ranks of transfers (both equal to Rank
	// for non-transfer spans left at their zero values).
	Src, Dst int
}

// dur reports the span length.
func (s Span) dur() sim.Duration { return s.End.Sub(s.Start) }

// bandwidth reports the span's payload rate in bytes per second of virtual
// time, guarding zero-duration and zero-byte spans (0, never ±Inf/NaN).
func (s Span) bandwidth() float64 {
	d := s.dur()
	if s.Bytes <= 0 || d <= 0 {
		return 0
	}
	return float64(s.Bytes) / d.Seconds()
}

// compare is the deterministic span order: by start, then end, then track,
// kind, label, and endpoints, so logs with equal-timestamp spans sort the
// same way on every run and at every sweep worker count.
func (s Span) compare(o Span) int {
	switch {
	case s.Start != o.Start:
		return cmp.Compare(s.Start, o.Start)
	case s.End != o.End:
		return cmp.Compare(s.End, o.End)
	case s.Track != o.Track:
		return strings.Compare(s.Track, o.Track)
	case s.Kind != o.Kind:
		return cmp.Compare(s.Kind, o.Kind)
	case s.Label != o.Label:
		return strings.Compare(s.Label, o.Label)
	}
	return cmp.Or(cmp.Compare(s.Src, o.Src), cmp.Compare(s.Dst, o.Dst))
}

// sortSpans orders spans deterministically (see Span.compare) in place, using
// a stable sort so fully identical spans keep their insertion order.
func sortSpans(spans []Span) { slices.SortStableFunc(spans, Span.compare) }

// sortedSpans returns spans in sortSpans order: the slice itself when it is
// already ordered (what Log.Sorted hands the analyses), a sorted copy
// otherwise, so callers stay independent of their input's order.
func sortedSpans(spans []Span) []Span {
	if slices.IsSortedFunc(spans, Span.compare) {
		return spans
	}
	srt := slices.Clone(spans)
	sortSpans(srt)
	return srt
}

// Log collects spans. The zero value is ready to use; a nil *Log discards
// everything. Appends are mutex-guarded, so a log may be read from another
// goroutine while its run appends; every consumer that needs a stable order
// sorts (Sorted/sortSpans).
type Log struct {
	mu sync.Mutex
	// Spans are appended into fixed-size chunks, so a growing log never
	// re-copies (or re-zeroes) what it already holds.
	chunks [][]Span
	n      int
}

// logChunk is the span capacity of one chunk (about 50 KiB).
const logChunk = 512

// New returns an empty log.
func New() *Log { return &Log{} }

// Add appends one span. Safe on a nil receiver (no-op), so producers can be
// instrumented unconditionally.
func (l *Log) Add(s Span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == logChunk {
		l.chunks = append(l.chunks, make([]Span, 0, logChunk))
		last++
	}
	l.chunks[last] = append(l.chunks[last], s)
	l.n++
	l.mu.Unlock()
}

// spans returns a copy of the recorded spans in insertion order.
func (l *Log) spans() []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return nil
	}
	out := make([]Span, 0, l.n)
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

// Len reports the span count.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Sorted returns a copy of the spans in deterministic order (sortSpans).
// Analysis and export paths use it so output bytes do not depend on
// producer interleaving.
func (l *Log) Sorted() []Span {
	out := l.spans()
	sortSpans(out)
	return out
}

// Summary aggregates busy time and counts per (kind, track).
type Summary struct {
	rows []summaryRow
}

// summaryRow is one aggregate.
type summaryRow struct {
	kind  Kind
	track string
	count int
	busy  sim.Duration
	bytes int64
}

// bandwidth reports the row's aggregate payload rate in bytes per second,
// guarding zero busy time (0, never ±Inf/NaN — a log of only instantaneous
// transfers summarizes cleanly).
func (r summaryRow) bandwidth() float64 {
	if r.bytes <= 0 || r.busy <= 0 {
		return 0
	}
	return float64(r.bytes) / r.busy.Seconds()
}

// Summarize aggregates the log per (kind, track), ordered by descending
// busy time.
func (l *Log) Summarize() Summary {
	type key struct {
		kind  Kind
		track string
	}
	acc := map[key]*summaryRow{}
	for _, s := range l.spans() {
		k := key{s.Kind, s.Track}
		r := acc[k]
		if r == nil {
			r = &summaryRow{kind: s.Kind, track: s.Track}
			acc[k] = r
		}
		r.count++
		r.busy += s.dur()
		r.bytes += s.Bytes
	}
	var rows []summaryRow
	for _, r := range acc {
		rows = append(rows, *r)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].busy != rows[j].busy {
			return rows[i].busy > rows[j].busy
		}
		if rows[i].track != rows[j].track {
			return rows[i].track < rows[j].track
		}
		return rows[i].kind < rows[j].kind
	})
	return Summary{rows: rows}
}

// Render formats the summary as a text table. bandwidth is per-row payload
// over busy time, zero for byte-less or zero-duration rows.
func (s Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-24s %8s %14s %12s %10s\n",
		"kind", "track", "count", "busy", "bytes", "GB/s")
	for _, r := range s.rows {
		fmt.Fprintf(&b, "%-10s %-24s %8d %14s %12d %10.2f\n",
			r.kind, r.track, r.count, r.busy, r.bytes, r.bandwidth()/1e9)
	}
	return b.String()
}

// chromeEvent is the Chrome trace-event "complete" record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  string         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports the log as a Chrome trace-event JSON array
// (open with chrome://tracing or Perfetto). Spans are emitted in
// deterministic sorted order.
func (l *Log) WriteChromeTrace(w io.Writer) error {
	return writeChromeEvents(w, appendChromeEvents(nil, l.Sorted(), 1))
}

// ChromeCell is one process group of a multi-cell Chrome export: the spans
// of one sweep cell (or one run), named so Perfetto's process rail shows
// which cell a row belongs to.
type ChromeCell struct {
	Name  string
	Spans []Span
}

// WriteChromeCells exports several cells into one Chrome trace, giving cell
// i process id i+1 plus a process_name metadata record. Span order within a
// cell is deterministic (sortSpans), so the export is byte-stable. The
// caller keeps cells in index order; see internal/bench/runner.go for the
// collector ownership rule.
func WriteChromeCells(w io.Writer, cells []ChromeCell) error {
	var events []chromeEvent
	for i, c := range cells {
		pid := i + 1
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": c.Name},
		})
		spans := append([]Span(nil), c.Spans...)
		sortSpans(spans)
		events = appendChromeEvents(events, spans, pid)
	}
	return writeChromeEvents(w, events)
}

// appendChromeEvents converts sorted spans to complete events under one pid.
// Bandwidth args are guarded against zero-duration spans (omitted rather
// than ±Inf, which would poison the JSON).
func appendChromeEvents(events []chromeEvent, spans []Span, pid int) []chromeEvent {
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Label,
			Cat:  s.Kind.String(),
			Ph:   "X",
			TS:   sim.Duration(s.Start).Micros(),
			Dur:  s.dur().Micros(),
			PID:  pid,
			TID:  s.Track,
		}
		if s.Bytes > 0 {
			ev.Args = map[string]any{"bytes": s.Bytes}
			if bw := s.bandwidth(); bw > 0 {
				ev.Args["gbps"] = bw / 1e9
			}
		}
		events = append(events, ev)
	}
	return events
}

func writeChromeEvents(w io.Writer, events []chromeEvent) error {
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
