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
	"sort"
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
// chunks, the symbol table their ids index, and the runs.
type store struct {
	chunks []*[logChunk]rec
	syms   []string
	runs   []run
}

// logChunk is the record capacity of one chunk (24 KiB).
const logChunk = 512

// run is one Repeat: copies 1..m of a period of n spans, stored once as
// records src, src+1, ..., src+n-1, copy k shifted by k*d. The copies hold
// log indices [at, at+m*n); the spans added after them are stored from
// record phys on. Like a record, it holds no pointers.
type run struct {
	at, src, n, m, phys int
	d                   sim.Duration
}

// end is the log index after the run's last copy.
func (r *run) end() int { return r.at + r.m*r.n }

// copyOf returns period span o shifted into copy k.
func (s *store) copyOf(r *run, k, o int) rec {
	x := *s.rec(int32(r.src + o))
	x.shift(sim.Duration(k) * r.d)
	return x
}

func (r *rec) shift(d sim.Duration) { r.start, r.end = r.start.Add(d), r.end.Add(d) }

// rec returns stored record j.
func (s *store) rec(j int32) *rec { return &s.chunks[uint32(j)/logChunk][uint32(j)%logChunk] }

// record returns the span at log index j: a stored record, or a copy of one.
func (s *store) record(j int) rec {
	for i := len(s.runs) - 1; i >= 0; i-- {
		r := &s.runs[i]
		if j >= r.end() {
			return *s.rec(int32(r.phys + j - r.end()))
		}
		if j >= r.at {
			return s.copyOf(r, (j-r.at)/r.n+1, (j-r.at)%r.n)
		}
	}
	return *s.rec(int32(j))
}

// index returns the log index of stored record p.
func (s *store) index(p int) int {
	for i := len(s.runs) - 1; i >= 0; i-- {
		if r := &s.runs[i]; p >= r.phys {
			return r.end() + p - r.phys
		}
	}
	return p
}

// Log collects spans. The zero value is ready to use; a nil *Log discards
// everything. A log is single-engine state with no lock: only its run
// appends, and nothing reads it until that run is over (the ownership rule
// in internal/bench/profile.go).
type Log struct {
	// Records are appended into fixed-size chunks, so a growing log never
	// re-copies (or re-zeroes) what it already holds.
	store
	n      int // spans, copies included
	stored int // records
	ids    map[string]uint32
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
	if l.stored%logChunk == 0 {
		l.chunks = append(l.chunks, new([logChunk]rec))
	}
	l.chunks[l.stored/logChunk][l.stored%logChunk] = r
	l.stored++
	l.n++
}

// AppendSince appends spans from, from+1, ... (insertion order) relative
// to base, for a fast-forward digest: two stretches of a periodic run encode
// equal when each is the other shifted by the distance of their bases.
func (l *Log) AppendSince(b []byte, from int, base sim.Time) []byte {
	if l == nil {
		return b
	}
	for j := from; j < l.n; j++ {
		r := l.record(j)
		for _, v := range [...]int64{int64(r.start - base), int64(r.end - base), r.bytes} {
			b = binary.AppendVarint(b, v)
		}
		for _, v := range [...]uint32{r.kind, r.label, r.track, uint32(r.rank), uint32(r.src), uint32(r.dst)} {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	return b
}

// Repeat appends m copies of spans [from, to), the k-th (k = 1..m) shifted
// by k*d, each copy in insertion order: what m more periods of a periodic
// run would have recorded. A period of spans added since the last Repeat is
// stored once, as a run, whatever m is; a period holding copies of an
// earlier one is stored copy by copy.
func (l *Log) Repeat(from, to, m int, d sim.Duration) {
	if l == nil || m <= 0 || from >= to {
		return
	}
	base, phys := 0, 0 // the log index and record of the first span since the last run
	if k := len(l.runs); k > 0 {
		base, phys = l.runs[k-1].end(), l.runs[k-1].phys
	}
	if from < base {
		for k := 1; k <= m; k++ {
			for j := from; j < to; j++ {
				r := l.record(j)
				r.shift(sim.Duration(k) * d)
				l.push(r)
			}
		}
		return
	}
	l.runs = append(l.runs, run{at: l.n, src: phys + from - base, n: to - from, m: m, phys: l.stored, d: d})
	l.n += m * (to - from)
}

// Len reports the span count, copies included.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// View is a log's spans in their one deterministic order: by start, then
// end, track, kind, label and endpoints, ties in insertion order, so logs
// with equal-timestamp spans order the same on every run and at every sweep
// worker count. It shares the log's records and symbols; every analysis and
// export reads a View.
//
// A run whose copies follow one another in that order, with no other span
// among them, stays folded as a band: its period in order, once per copy.
// The view orders the rest, its explicit spans, by a permutation of
// handles. Copies that are not folded — a band's edges where other spans
// reach in, or a run whose copies interleave — are explicit too.
type View struct {
	store
	order  []int32 // the explicit spans in order: record h, or peeled[^h]
	peeled []rec   // the copies in order that no band holds
	bands  []band  // in order
	n      int
}

// band is copies first, first+1, ..., first+count-1 of a run: they hold view
// positions [at, at+count*len(period)) and follow explicit span cut-1.
type band struct {
	at, cut      int
	period       []int32 // the period's records in order
	first, count int
	d            sim.Duration
}

// size is the number of positions the band holds.
func (b *band) size() int { return b.count * len(b.period) }

// last is the position after the band.
func (b *band) last() int { return b.at + b.size() }

// bandRec returns period span o in band b's copy c (0-based).
func (v *View) bandRec(b *band, c, o int) rec {
	x := *v.rec(b.period[o])
	x.shift(sim.Duration(b.first+c) * b.d)
	return x
}

// ptr returns the explicit span behind handle h.
func (v *View) ptr(h int32) *rec {
	if h < 0 {
		return &v.peeled[^h]
	}
	return v.rec(h)
}

// at returns the span at position i.
func (v *View) at(i int) rec {
	k := i
	for j := range v.bands {
		b := &v.bands[j]
		if i < b.at {
			break
		}
		if i < b.last() {
			o := i - b.at
			return v.bandRec(b, o/len(b.period), o%len(b.period))
		}
		k -= b.size()
	}
	return *v.ptr(v.order[k])
}

// sorter orders a log's spans.
type sorter struct {
	l *Log
	v *View
	// rank is each symbol's place among all symbols in string order, so
	// comparing two tracks, or two labels, compares two integers.
	rank []int32
	// index is the log index of each peeled copy, its insertion order.
	index []int
}

// key compares two spans by the view's order without its insertion-order
// tie-break: 0 when they tie.
func (s *sorter) key(x, y *rec) int {
	switch {
	case x.start != y.start:
		return cmp.Compare(x.start, y.start)
	case x.end != y.end:
		return cmp.Compare(x.end, y.end)
	case x.track != y.track:
		return cmp.Compare(s.rank[x.track], s.rank[y.track])
	case x.kind != y.kind:
		return cmp.Compare(x.kind, y.kind)
	case x.label != y.label:
		return cmp.Compare(s.rank[x.label], s.rank[y.label])
	case x.src != y.src:
		return cmp.Compare(x.src, y.src)
	}
	return cmp.Compare(x.dst, y.dst)
}

// indexOf returns the log index of the explicit span behind handle h.
func (s *sorter) indexOf(h int32) int {
	if h < 0 {
		return s.index[^h]
	}
	return s.l.index(int(h))
}

// handles compares the explicit spans behind two handles.
func (s *sorter) handles(a, b int32) int {
	if c := s.key(s.v.ptr(a), s.v.ptr(b)); c != 0 {
		return c
	}
	return cmp.Compare(s.indexOf(a), s.indexOf(b))
}

// fixed is a span not behind a handle: a band's copy, with its log index.
type fixed struct {
	r     rec
	index int
}

// against compares the explicit span behind handle h with f.
func (s *sorter) against(h int32, f *fixed) int {
	if c := s.key(s.v.ptr(h), &f.r); c != 0 {
		return c
	}
	return cmp.Compare(s.indexOf(h), f.index)
}

// copySpan returns the span in run r's copy k at its period's position o.
func (s *sorter) copySpan(r *run, period []int32, k, o int) fixed {
	p := int(period[o])
	return fixed{s.l.copyOf(r, k, p-r.src), r.at + (k-1)*r.n + p - r.src}
}

// Sorted returns the log's view; spans the log gains afterwards are not in
// it. It sorts the explicit spans once. A run's period is sorted once; the
// run is folded when its copies follow one another, and the copies at its
// edges that another span falls among are peeled into explicit spans until
// none does (ultimately all of them).
func (l *Log) Sorted() *View {
	if l == nil {
		return &View{}
	}
	byName, rank := make([]int32, len(l.syms)), make([]int32, len(l.syms))
	for i := range byName {
		byName[i] = int32(i)
	}
	slices.SortFunc(byName, func(a, b int32) int { return strings.Compare(l.syms[a], l.syms[b]) })
	for r, id := range byName {
		rank[id] = int32(r)
	}
	v := &View{store: l.store, n: l.n}
	s := &sorter{l: l, v: v, rank: rank}

	// Per run: its period in order, and how many copies its front and back
	// edges peel. A run whose copies interleave — the period's last span
	// after the next copy's first — peels them all.
	type plan struct {
		period      []int32
		front, back int
	}
	plans := make([]plan, len(l.runs))
	for i := range l.runs {
		r := &l.runs[i]
		p := &plans[i]
		p.period = make([]int32, r.n)
		for o := range p.period {
			p.period[o] = int32(r.src + o)
		}
		sortNearly(p.period, s.handles)
		last, next := *l.rec(p.period[r.n-1]), *l.rec(p.period[0])
		next.shift(r.d)
		if s.key(&last, &next) > 0 {
			p.front = r.m
		}
	}
	v.order = make([]int32, 0, l.stored)
	for {
		v.order, v.peeled, v.bands, s.index = v.order[:0], v.peeled[:0], v.bands[:0], s.index[:0]
		p := 0
		explicit := func(to int) {
			for ; p < to; p++ {
				v.order = append(v.order, int32(p))
			}
		}
		for i := range l.runs {
			r, pl := &l.runs[i], &plans[i]
			explicit(r.phys)
			for k := 1; k <= r.m; k++ {
				if k == pl.front+1 && pl.front+pl.back < r.m {
					k = r.m - pl.back + 1 // the band's copies
					if k > r.m {
						break
					}
				}
				for o := range r.n {
					v.order = append(v.order, ^int32(len(v.peeled)))
					v.peeled = append(v.peeled, l.copyOf(r, k, o))
					s.index = append(s.index, r.at+(k-1)*r.n+o)
				}
			}
		}
		explicit(l.stored)
		sortNearly(v.order, s.handles)

		// Place each band: its first copy after the explicit spans that
		// precede it, and no explicit span before its last copy's last.
		settled, at := true, 0
		var prev *fixed
		for i := range l.runs {
			r, pl := &l.runs[i], &plans[i]
			count := r.m - pl.front - pl.back
			if count <= 0 {
				continue
			}
			L := len(pl.period)
			lo, hi := s.copySpan(r, pl.period, pl.front+1, 0), s.copySpan(r, pl.period, r.m-pl.back, L-1)
			cut := sort.Search(len(v.order), func(k int) bool { return s.against(v.order[k], &lo) > 0 })
			if len(v.bands) > 0 {
				b := &v.bands[len(v.bands)-1]
				if cut < b.cut || cut == b.cut && s.key(&prev.r, &lo.r) > 0 {
					pl.front, settled = r.m, false // out of order with the band before: unfold
					continue
				}
			}
			// An explicit span among the copies peels the copies from it to
			// the nearer edge: it follows the first span of band copies
			// 1..j and precedes the next's.
			front, back := 0, 0
			for k := cut; k < len(v.order) && s.against(v.order[k], &hi) < 0; k++ {
				j := sort.Search(count, func(j int) bool {
					next := s.copySpan(r, pl.period, pl.front+1+j, 0)
					return s.against(v.order[k], &next) < 0
				})
				if j <= count-j+1 {
					front = max(front, j)
				} else {
					back = max(back, count-j+1)
				}
			}
			if front > 0 || back > 0 {
				pl.front, pl.back, settled = pl.front+front, pl.back+back, false
				continue
			}
			v.bands = append(v.bands, band{at: cut + at, cut: cut, period: pl.period, first: pl.front + 1, count: count, d: r.d})
			at += count * L
			prev = &hi
		}
		if settled {
			return v
		}
	}
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
	return v.n
}

// span resolves the span at position i.
func (v *View) span(i int) Span {
	r := v.at(i)
	return Span{Kind: Kind(r.kind), Label: v.syms[r.label], Track: v.syms[r.track],
		Start: r.start, End: r.end, Bytes: r.bytes, Rank: int(r.rank), Src: int(r.src), Dst: int(r.dst)}
}

// each yields every span of the view once, unshifted, with the number of
// positions it stands for: an explicit span 1, a band's period span its
// copy count. It is the whole view for what reads no instant.
func (v *View) each() iter.Seq2[*rec, int] {
	return func(yield func(*rec, int) bool) {
		if v == nil {
			return
		}
		for _, h := range v.order {
			if !yield(v.ptr(h), 1) {
				return
			}
		}
		for i := range v.bands {
			b := &v.bands[i]
			for _, h := range b.period {
				if !yield(v.rec(h), b.count) {
					return
				}
			}
		}
	}
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
// busy time, then track and kind. A band counts its period once per copy.
func (v *View) Summarize() Summary {
	var rows []summaryRow
	row := map[[2]uint32]int{}
	for r, copies := range v.each() {
		k := [2]uint32{r.kind, r.track}
		j, ok := row[k]
		if !ok {
			j = len(rows)
			row[k] = j
			rows = append(rows, summaryRow{kind: Kind(r.kind), track: v.syms[r.track]})
		}
		rows[j].count += copies
		rows[j].busy += sim.Duration(copies) * r.dur()
		rows[j].bytes += int64(copies) * r.bytes
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

// WriteChromeTrace exports the view as a Chrome trace-event JSON array
// (open with chrome://tracing or Perfetto), in its deterministic order.
func (v *View) WriteChromeTrace(w io.Writer) error {
	return json.NewEncoder(w).Encode(appendChromeEvents(nil, v, 1))
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
