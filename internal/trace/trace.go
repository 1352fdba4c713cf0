// Package trace records virtual-time execution spans (kernels, stream
// operations, fabric transfers) so runs can be inspected, summarized, or
// exported in Chrome trace-event JSON for chrome://tracing.
//
// The tracer is deliberately dumb and allocation-friendly: producers append
// spans, which the log stores as pointer-free records with their names
// interned; analysis happens afterwards, over one sorted View, and resolves
// names only when it renders. A nil *Log is a valid, disabled tracer, so
// instrumentation sites need no conditionals.
package trace

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"slices"
	"strings"
	"unsafe"

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

// rec is a stored span: its Label and Track are ids into the log's symbol
// table, so it holds no pointers (48 bytes against Span's 88). Log chunks are
// therefore never scanned by the garbage collector, and an append or a sort
// never pays a write barrier.
type rec struct {
	start, end         sim.Time
	bytes              int64
	kind, label, track uint32
	rank, src, dst     int32
}

func (r *rec) dur() sim.Duration { return r.end.Sub(r.start) }

// bandwidth reports a payload rate in bytes per second of virtual time,
// guarding zero-duration and zero-byte spans and rows (0, never ±Inf/NaN).
func bandwidth(bytes int64, d sim.Duration) float64 {
	if bytes <= 0 || d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds()
}

// store is what a log and its views share: the records, in fixed-size
// chunks, and the symbol table their ids index.
type store struct {
	chunks []*[logChunk]rec
	syms   []string
}

// logChunk is the record capacity of one chunk (24 KiB).
const logChunk = 512

// rec returns record j in insertion order.
func (s *store) rec(j int32) *rec { return &s.chunks[uint32(j)/logChunk][uint32(j)%logChunk] }

// Log collects spans. The zero value is ready to use; a nil *Log discards
// everything. A log is single-engine state with no lock: only its run
// appends, and nothing reads it until that run is over (the ownership rule
// in internal/bench/profile.go).
type Log struct {
	// Records are appended into fixed-size chunks, so a growing log never
	// re-copies (or re-zeroes) what it already holds.
	store
	n   int
	ids map[string]uint32
	// recent maps a name's address to its id, +1: producers pass the same
	// few strings over and over (a memoised label, a stream's name), so
	// most names are found here without hashing their bytes.
	recent [16]struct {
		name string
		id   uint32
	}
}

// New returns an empty log.
func New() *Log { return &Log{} }

// intern returns name's symbol id, adding it on first sight.
func (l *Log) intern(name string) uint32 {
	addr := unsafe.StringData(name)
	e := &l.recent[uintptr(unsafe.Pointer(addr))/16%uintptr(len(l.recent))]
	if e.id != 0 && unsafe.StringData(e.name) == addr && len(e.name) == len(name) {
		return e.id - 1
	}
	id, ok := l.ids[name]
	if !ok {
		if l.ids == nil {
			l.ids = map[string]uint32{}
		}
		id = uint32(len(l.syms))
		l.syms = append(l.syms, name)
		l.ids[name] = id
	}
	e.name, e.id = name, id+1
	return id
}

// Add appends one span. Safe on a nil receiver (no-op), so producers can be
// instrumented unconditionally.
func (l *Log) Add(s Span) {
	if l == nil {
		return
	}
	l.push(rec{
		start: s.Start, end: s.End, bytes: s.Bytes,
		kind: uint32(s.Kind), label: l.intern(s.Label), track: l.intern(s.Track),
		rank: int32(s.Rank), src: int32(s.Src), dst: int32(s.Dst),
	})
}

// push appends one record.
func (l *Log) push(r rec) {
	if l.n%logChunk == 0 {
		l.chunks = append(l.chunks, new([logChunk]rec))
	}
	l.chunks[l.n/logChunk][l.n%logChunk] = r
	l.n++
}

// AppendSince appends records from, from+1, ... (insertion order) relative
// to base, for a fast-forward digest: two stretches of a periodic run encode
// equal when each is the other shifted by the distance of their bases.
func (l *Log) AppendSince(b []byte, from int, base sim.Time) []byte {
	if l == nil {
		return b
	}
	for j := from; j < l.n; j++ {
		r := l.rec(int32(j))
		for _, v := range [...]int64{int64(r.start - base), int64(r.end - base), r.bytes} {
			b = binary.AppendVarint(b, v)
		}
		for _, v := range [...]uint32{r.kind, r.label, r.track, uint32(r.rank), uint32(r.src), uint32(r.dst)} {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	return b
}

// Repeat appends m copies of records [from, to), the k-th (k = 1..m) shifted
// by k*d, each copy in insertion order: what m more periods of a periodic run
// would have recorded.
func (l *Log) Repeat(from, to, m int, d sim.Duration) {
	if l == nil {
		return
	}
	for k := 1; k <= m; k++ {
		shift := sim.Time(k) * sim.Time(d)
		for j := from; j < to; j++ {
			r := *l.rec(int32(j))
			r.start += shift
			r.end += shift
			l.push(r)
		}
	}
}

// Len reports the span count.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// View is a log's spans in their one deterministic order: by start, then
// end, track, kind, label and endpoints, ties in insertion order, so logs
// with equal-timestamp spans order the same on every run and at every sweep
// worker count. It shares the log's records and symbols and adds a
// permutation of them; every analysis and export reads a View.
type View struct {
	store
	order []int32 // record index at each position
}

// Sorted returns the log's view. It sorts the record indices once; spans the
// log gains afterwards are not in it.
func (l *Log) Sorted() *View {
	if l == nil {
		return &View{}
	}
	// A symbol's rank is its place among all symbols in string order, so
	// comparing two tracks, or two labels, compares two integers.
	byName, rank := make([]int32, len(l.syms)), make([]int32, len(l.syms))
	for i := range byName {
		byName[i] = int32(i)
	}
	slices.SortFunc(byName, func(a, b int32) int { return strings.Compare(l.syms[a], l.syms[b]) })
	for r, id := range byName {
		rank[id] = int32(r)
	}
	v := &View{store: l.store, order: make([]int32, l.n)}
	for j := range v.order {
		v.order[j] = int32(j)
	}
	sortNearly(v.order, func(a, b int32) int {
		x, y := l.rec(a), l.rec(b)
		switch {
		case x.start != y.start:
			return cmp.Compare(x.start, y.start)
		case x.end != y.end:
			return cmp.Compare(x.end, y.end)
		case x.track != y.track:
			return cmp.Compare(rank[x.track], rank[y.track])
		case x.kind != y.kind:
			return cmp.Compare(x.kind, y.kind)
		case x.label != y.label:
			return cmp.Compare(rank[x.label], rank[y.label])
		}
		return cmp.Or(cmp.Compare(x.src, y.src), cmp.Compare(x.dst, y.dst), cmp.Compare(a, b))
	})
	return v
}

// sortNearly sorts xs by cmp, a total order. Producers append spans nearly
// in start order (a stream op when it completes, a transfer when it is
// booked), and a span ends about when the next one starts, so an element is
// rarely more than a step or two from its place and an insertion sort is
// about one pass. Past four moves per element it hands the rest to
// slices.SortFunc, so no order costs more than O(n log n).
func sortNearly[T any](xs []T, cmp func(a, b T) int) {
	budget := 4 * len(xs)
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && cmp(xs[j-1], xs[j]) > 0; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
			if budget--; budget < 0 {
				slices.SortFunc(xs, cmp)
				return
			}
		}
	}
}

// Len reports the span count (0 for a nil view).
func (v *View) Len() int {
	if v == nil {
		return 0
	}
	return len(v.order)
}

// at returns the record at position i.
func (v *View) at(i int) *rec { return v.rec(v.order[i]) }

// span resolves the span at position i.
func (v *View) span(i int) Span {
	r := v.at(i)
	return Span{Kind: Kind(r.kind), Label: v.syms[r.label], Track: v.syms[r.track],
		Start: r.start, End: r.end, Bytes: r.bytes, Rank: int(r.rank), Src: int(r.src), Dst: int(r.dst)}
}

// Spans yields the spans in order, names resolved.
func (v *View) Spans() iter.Seq[Span] {
	return func(yield func(Span) bool) {
		for i := range v.Len() {
			if !yield(v.span(i)) {
				return
			}
		}
	}
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

// Summarize aggregates the spans per (kind, track), ordered by descending
// busy time, then track and kind.
func (v *View) Summarize() Summary {
	var rows []summaryRow
	row := map[[2]uint32]int{}
	for i := range v.Len() {
		r := v.at(i)
		k := [2]uint32{r.kind, r.track}
		j, ok := row[k]
		if !ok {
			j = len(rows)
			row[k] = j
			rows = append(rows, summaryRow{kind: Kind(r.kind), track: v.syms[r.track]})
		}
		rows[j].count++
		rows[j].busy += r.dur()
		rows[j].bytes += r.bytes
	}
	slices.SortFunc(rows, func(a, b summaryRow) int {
		return cmp.Or(cmp.Compare(b.busy, a.busy), strings.Compare(a.track, b.track), cmp.Compare(a.kind, b.kind))
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
			r.kind, r.track, r.count, r.busy, r.bytes, bandwidth(r.bytes, r.busy)/1e9)
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
	return json.NewEncoder(w).Encode(appendChromeEvents(nil, l.Sorted(), 1))
}

// ChromeCell is one process group of a multi-cell Chrome export: the spans
// of one sweep cell (or one run), named so Perfetto's process rail shows
// which cell a row belongs to.
type ChromeCell struct {
	Name  string
	Spans *View
}

// WriteChromeCells exports several cells into one Chrome trace, giving cell
// i process id i+1 plus a process_name metadata record. Each view is in its
// deterministic order, so the export is byte-stable. The caller keeps cells
// in index order; see internal/bench/runner.go for the collector ownership
// rule.
func WriteChromeCells(w io.Writer, cells []ChromeCell) error {
	var events []chromeEvent
	for i, c := range cells {
		pid := i + 1
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": c.Name},
		})
		events = appendChromeEvents(events, c.Spans, pid)
	}
	return json.NewEncoder(w).Encode(events)
}

// appendChromeEvents converts a view to complete events under one pid.
// Bandwidth args are guarded against zero-duration spans (omitted rather
// than ±Inf, which would poison the JSON).
func appendChromeEvents(events []chromeEvent, v *View, pid int) []chromeEvent {
	for i := range v.Len() {
		r := v.at(i)
		ev := chromeEvent{
			Name: v.syms[r.label],
			Cat:  Kind(r.kind).String(),
			Ph:   "X",
			TS:   sim.Duration(r.start).Micros(),
			Dur:  r.dur().Micros(),
			PID:  pid,
			TID:  v.syms[r.track],
		}
		if r.bytes > 0 {
			ev.Args = map[string]any{"bytes": r.bytes}
			if bw := bandwidth(r.bytes, r.dur()); bw > 0 {
				ev.Args["gbps"] = bw / 1e9
			}
		}
		events = append(events, ev)
	}
	return events
}
