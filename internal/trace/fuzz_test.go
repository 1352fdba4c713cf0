package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

// The fuzz alphabet: few names (shared prefixes, the empty name, the "inter"
// prefix that classifies a transfer) and sparse ranks, so generated logs are
// full of equal tracks, labels and endpoints.
var (
	fuzzTracks = []string{"", "a", "b", "gpu0.s", "gpu1.s", "intra", "inter", "inter+failover"}
	fuzzLabels = []string{"", "a", "b", "c", "k", "k0", "k1", "k1a", "k1b", "x", "jacobi", "memcpy", "gpu0->gpu1", "gpu1->gpu0"}
	fuzzRanks  = []int{0, 1, 2, 3, 5, 9}
	fuzzBytes  = []int64{0, 7, 50, 100, 4096, 1 << 20}
)

// A fuzz input is a uint16 attribution horizon followed by spanBytes per
// op. An op is a span: kind and flags, track, label, start and duration
// (uint16 each), rank, src, dst, and payload. Flag 4 starts the span where
// the previous one ended and flag 8 where it started, so equal instants and
// chains are one bit away. Flag 16 makes the op a Repeat of the last 1..8
// spans, 1..64 times, shifted by the uint16 at the start field's place —
// or, with flag 32, by the period's extent plus that modulo 64, so that its
// copies follow one another and fold.
const spanBytes = 11

// op is a span to add, or a Repeat of the last period spans, copies times.
type op struct {
	Span
	period, copies int
	d              sim.Duration
}

// maxExpanded bounds a decoded log's spans, copies included.
const maxExpanded = 1024

func decodeSpans(data []byte) (sim.Time, []op) {
	if len(data) < 2 {
		return 0, nil
	}
	horizon := sim.Time(binary.LittleEndian.Uint16(data))
	var ops []op
	var spans []Span // the log's spans, copies included
	for b := data[2:]; len(b) >= spanBytes && len(ops) < 64; b = b[spanBytes:] {
		if b[0]&16 != 0 {
			o := op{period: 1 + int(b[1])%8, copies: 1 + int(b[2])%64, d: sim.Duration(binary.LittleEndian.Uint16(b[3:]))}
			if o.period > len(spans) || len(spans)+o.period*o.copies > maxExpanded {
				continue
			}
			if b[0]&32 != 0 {
				lo, hi := spans[len(spans)-o.period].Start, spans[len(spans)-o.period].End
				for _, s := range spans[len(spans)-o.period:] {
					lo, hi = min(lo, s.Start), max(hi, s.End)
				}
				o.d = hi.Sub(lo) + o.d%64
			}
			ops, spans = append(ops, o), expand(spans, o)
			continue
		}
		s := Span{
			Kind:  Kind(b[0] % 4),
			Track: fuzzTracks[int(b[1])%len(fuzzTracks)],
			Label: fuzzLabels[int(b[2])%len(fuzzLabels)],
			Start: sim.Time(binary.LittleEndian.Uint16(b[3:])),
			Rank:  fuzzRanks[int(b[7])%len(fuzzRanks)],
			Src:   fuzzRanks[int(b[8])%len(fuzzRanks)],
			Dst:   fuzzRanks[int(b[9])%len(fuzzRanks)],
			Bytes: fuzzBytes[int(b[10])%len(fuzzBytes)],
		}
		if prev := len(spans) - 1; prev >= 0 && b[0]&4 != 0 {
			s.Start = spans[prev].End
		} else if prev >= 0 && b[0]&8 != 0 {
			s.Start = spans[prev].Start
		}
		s.End = s.Start.Add(sim.Duration(binary.LittleEndian.Uint16(b[5:])))
		ops, spans = append(ops, op{Span: s}), append(spans, s)
	}
	return horizon, ops
}

// expand appends to spans what the op adds to a log.
func expand(spans []Span, o op) []Span {
	if o.copies == 0 {
		return append(spans, o.Span)
	}
	period := spans[len(spans)-o.period:]
	for k := 1; k <= o.copies; k++ {
		for _, s := range period {
			s.Start, s.End = s.Start.Add(sim.Duration(k)*o.d), s.End.Add(sim.Duration(k)*o.d)
			spans = append(spans, s)
		}
	}
	return spans
}

// replay adds the ops to a fresh log and returns it with the spans it
// holds, copies included, in insertion order. A Repeat of more spans than
// the log holds is left out.
func replay(ops []op) (*Log, []Span) {
	l := New()
	var spans []Span
	for _, o := range ops {
		switch {
		case o.copies == 0:
			l.Add(o.Span)
		case o.period <= l.Len():
			l.Repeat(l.Len()-o.period, l.Len(), o.copies, o.d)
		default:
			continue
		}
		spans = expand(spans, o)
	}
	return l, spans
}

// encodeSpans is decodeSpans' inverse for ops inside the alphabet; a Repeat
// is encoded with its shift.
func encodeSpans(t testing.TB, horizon sim.Time, ops []op) []byte {
	index := func(list any, v any) byte {
		l := reflect.ValueOf(list)
		for i := range l.Len() {
			if l.Index(i).Interface() == v {
				return byte(i)
			}
		}
		t.Fatalf("%v is outside the fuzz alphabet", v)
		return 0
	}
	out := binary.LittleEndian.AppendUint16(nil, uint16(horizon))
	for _, o := range ops {
		if o.copies > 0 {
			out = append(out, 16, byte(o.period-1), byte(o.copies-1))
			out = binary.LittleEndian.AppendUint16(out, uint16(o.d))
			out = append(out, make([]byte, spanBytes-5)...)
			continue
		}
		s := o.Span
		out = append(out, byte(s.Kind), index(fuzzTracks, s.Track), index(fuzzLabels, s.Label))
		out = binary.LittleEndian.AppendUint16(out, uint16(s.Start))
		out = binary.LittleEndian.AppendUint16(out, uint16(s.End-s.Start))
		out = append(out, index(fuzzRanks, s.Rank), index(fuzzRanks, s.Src), index(fuzzRanks, s.Dst), index(fuzzBytes, s.Bytes))
	}
	return out
}

// spanOps is the ops that add the spans.
func spanOps(spans []Span) []op {
	ops := make([]op, len(spans))
	for i, s := range spans {
		ops[i] = op{Span: s}
	}
	return ops
}

// periodicOps is a two-rank ping-pong, warmed up and then repeated: each
// period a kernel on each rank and a transfer each way, the last two
// periods' spans copied copies times one period later each.
func periodicOps(copies int, d sim.Duration, track string) []op {
	var ops []op
	for it := range 3 {
		at := sim.Time(it) * sim.Time(d)
		ops = append(ops, spanOps([]Span{
			{Kind: kindKernel, Label: "k0", Track: "gpu0.s", Rank: 0, Start: at, End: at + 10},
			{Kind: KindTransfer, Label: "gpu0->gpu1", Track: track, Rank: 0, Src: 0, Dst: 1, Start: at + 10, End: at + 40, Bytes: 4096},
			{Kind: kindKernel, Label: "k1", Track: "gpu1.s", Rank: 1, Start: at + 40, End: at + 50},
			{Kind: KindTransfer, Label: "gpu1->gpu0", Track: track, Rank: 1, Src: 1, Dst: 0, Start: at + 50, End: at + 80, Bytes: 4096},
		})...)
	}
	ops = append(ops, op{period: 4, copies: copies, d: d})
	at := sim.Time(copies+3) * sim.Time(d)
	return append(ops, op{Span: Span{Kind: kindKernel, Label: "x", Track: "gpu0.s", Rank: 0, Start: at, End: at + 5}})
}

// seedCases are the spans of the package's unit tests, each with the horizon
// its attribution is taken at.
var seedCases = []struct {
	horizon sim.Time
	spans   []Span
}{
	{300, []Span{
		{Kind: kindKernel, Label: "a", Track: "gpu0.s", Rank: 0, Start: 0, End: 100},
		{Kind: kindKernel, Label: "b", Track: "gpu0.s", Rank: 0, Start: 100, End: 250},
		{Kind: kindKernel, Label: "c", Track: "gpu0.s", Rank: 0, Start: 250, End: 300},
	}},
	{400, []Span{
		{Kind: kindKernel, Label: "k0", Track: "gpu0.s", Rank: 0, Start: 0, End: 100},
		{Kind: kindKernel, Label: "k1a", Track: "gpu1.s", Rank: 1, Start: 0, End: 80},
		{Kind: KindTransfer, Label: "gpu0->gpu1", Track: "intra", Rank: 0, Src: 0, Dst: 1, Start: 100, End: 150, Bytes: 4096},
		{Kind: kindKernel, Label: "k1b", Track: "gpu1.s", Rank: 1, Start: 150, End: 400},
	}},
	{500, []Span{
		{Kind: kindKernel, Label: "a", Track: "gpu0.s", Rank: 0, Start: 0, End: 100},
		{Kind: kindKernel, Label: "b", Track: "gpu0.s", Rank: 0, Start: 300, End: 500},
	}},
	{140, []Span{
		{Kind: kindKernel, Label: "a", Track: "gpu0.s", Rank: 0, Start: 0, End: 100},
		{Kind: kindKernel, Label: "b", Track: "gpu1.s", Rank: 1, Start: 0, End: 140},
	}},
	{260, []Span{
		{Kind: kindKernel, Label: "k1", Track: "gpu1.s", Rank: 1, Start: 180, End: 260},
		{Kind: kindKernel, Label: "k0", Track: "gpu0.s", Rank: 0, Start: 0, End: 100},
		{Kind: KindTransfer, Label: "gpu0->gpu1", Track: "inter", Rank: 0, Src: 0, Dst: 1, Start: 100, End: 180, Bytes: 1 << 20},
	}},
	{200, []Span{
		{Kind: kindKernel, Label: "k", Track: "gpu0.s", Rank: 0, Start: 0, End: 100},
		{Kind: KindTransfer, Label: "gpu0->gpu1", Track: "inter", Rank: 0, Src: 0, Dst: 1, Start: 50, End: 150, Bytes: 4096},
	}},
	{100, []Span{{Kind: kindKernel, Track: "gpu0.s", Rank: 0, Start: 50, End: 500}}},
	{3, []Span{
		{Kind: KindTransfer, Src: 0, Dst: 1, Bytes: 100, Start: 0, End: 1},
		{Kind: KindTransfer, Src: 0, Dst: 1, Bytes: 50, Start: 1, End: 2},
		{Kind: KindTransfer, Src: 2, Dst: 0, Bytes: 7, Start: 0, End: 3},
		{Kind: kindKernel, Rank: 5, Start: 0, End: 1},
	}},
	{100, []Span{{Kind: KindTransfer, Src: 0, Dst: 1, Bytes: 4096, Start: 100, End: 100}}},
	{20, []Span{
		{Kind: kindKernel, Label: "x", Track: "b", Start: 10, End: 20},
		{Kind: kindKernel, Label: "x", Track: "a", Start: 10, End: 20},
	}},
	{160, []Span{
		{Kind: kindKernel, Label: "jacobi", Track: "gpu0.s", Start: 0, End: 100},
		{Kind: KindTransfer, Label: "gpu0->gpu1", Track: "intra", Start: 50, End: 150, Bytes: 4096},
		{Kind: KindTransfer, Label: "gpu1->gpu0", Track: "intra", Start: 60, End: 160, Bytes: 4096},
		{Kind: KindStreamOp, Label: "memcpy", Track: "gpu0.s", Start: 100, End: 110},
	}},
}

// analyses renders everything the package derives from a log: the sorted
// spans, the critical path with its whole chain, the attribution, the
// matrix and its totals, the summary, and both Chrome exports.
func analyses(t *testing.T, l *Log, horizon sim.Time) []string {
	v := l.Sorted()
	cp := CriticalPath(v)
	chain := make([]Span, cp.Count())
	for i := range chain {
		chain[i] = v.span(cp.pos(i))
	}
	ranks, total, msgs := v.Traffic()
	var one, cells bytes.Buffer
	if err := l.WriteChromeTrace(&one); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeCells(&cells, []ChromeCell{{Name: "cell", Spans: v}, {Name: "empty"}}); err != nil {
		t.Fatal(err)
	}
	return []string{
		sprint(slices.Collect(v.Spans())), cp.Render(), sprint(chain),
		RenderBreakdown(Attribute(v, horizon)), BuildCommMatrix(v).Render(), sprint([]int64{int64(ranks), total, msgs}),
		v.Summarize().Render(), one.String(), cells.String(),
	}
}

// referenceAnalyses is analyses by the reference implementation.
func referenceAnalyses(t *testing.T, spans []Span, horizon sim.Time) []string {
	cp := refCriticalPath(spans)
	m := refBuildCommMatrix(spans)
	var total, msgs int64
	for src := range m.Bytes {
		for dst := range m.Bytes[src] {
			total += m.Bytes[src][dst]
			msgs += m.Count[src][dst]
		}
	}
	var one, cells bytes.Buffer
	if err := refWriteChromeTrace(&one, spans); err != nil {
		t.Fatal(err)
	}
	if err := refWriteChromeCells(&cells, []string{"cell", "empty"}, [][]Span{spans, nil}); err != nil {
		t.Fatal(err)
	}
	return []string{
		sprint(refSorted(spans)), cp.Render(), sprint(cp.Chain),
		RenderBreakdown(refAttribute(spans, horizon)), m.Render(), sprint([]int64{int64(m.N), total, msgs}),
		refSummarize(spans).Render(), one.String(), cells.String(),
	}
}

func sprint[T any](v []T) string {
	var b bytes.Buffer
	for _, x := range v {
		fmt.Fprintf(&b, "%+v\n", x)
	}
	return b.String()
}

// FuzzSpanAnalysis is the differential oracle of the record/view log: for
// any spans and Repeats of them, added in the generated order and in
// reverse, every analysis and export renders byte for byte what the
// reference span-slice implementation renders for the same spans, copies
// included, in the same order, and so does the same log expanded.
func FuzzSpanAnalysis(f *testing.F) {
	for _, c := range seedCases {
		f.Add(encodeSpans(f, c.horizon, spanOps(c.spans)))
	}
	for _, copies := range []int{1, 2, 5, 63} {
		f.Add(encodeSpans(f, sim.Time(copies+4)*100, periodicOps(copies, 100, "inter")))
		f.Add(encodeSpans(f, sim.Time(copies)*60, periodicOps(copies, 60, "intra")))
	}
	// A long span before a band, committed during the band's third copy: the
	// second and third copies differ by the same Δ everywhere, but only
	// because of it, so the copies after them do not repeat that Δ.
	f.Add(encodeSpans(f, 600, append(spanOps([]Span{
		{Kind: kindKernel, Label: "k1", Track: "gpu1.s", Rank: 0, Start: 140, End: 397},
		{Kind: kindKernel, Label: "k0", Track: "gpu0.s", Rank: 0, Start: 200, End: 210},
		{Kind: KindTransfer, Label: "gpu0->gpu1", Track: "inter", Rank: 0, Src: 0, Dst: 1, Start: 210, End: 240, Bytes: 4096},
		{Kind: kindKernel, Label: "k1", Track: "gpu1.s", Rank: 1, Start: 240, End: 250},
		{Kind: KindTransfer, Label: "gpu1->gpu0", Track: "inter", Rank: 1, Src: 1, Dst: 0, Start: 250, End: 280, Bytes: 4096},
	}), op{period: 4, copies: 3, d: 100})))
	// A long span before a band, still pending when the band's second and
	// third copies first match, that commits during its fifth copy and
	// raises rank 0's entry above the band's: the copies from then on extend
	// it, so the match two copies earlier did not decide them.
	f.Add(encodeSpans(f, 1000, append(spanOps([]Span{
		{Kind: kindKernel, Label: "k1", Track: "gpu1.s", Rank: 0, Start: 100, End: 550},
		{Kind: kindKernel, Label: "k0", Track: "gpu0.s", Rank: 0, Start: 200, End: 210},
	}), op{period: 1, copies: 7, d: 100})))
	f.Fuzz(func(t *testing.T, data []byte) {
		horizon, ops := decodeSpans(data)
		names := []string{"sorted spans", "critical path", "chain", "attribution", "comm matrix", "traffic", "summary", "chrome trace", "chrome cells"}
		reversed := slices.Clone(ops)
		slices.Reverse(reversed)
		for _, order := range [][]op{ops, reversed} {
			l, spans := replay(order)
			want := referenceAnalyses(t, spans, horizon)
			for _, log := range []*Log{l, l.Sorted().expand()} {
				for i, got := range analyses(t, log, horizon) {
					if got != want[i] {
						t.Fatalf("%s differs from the reference:\n--- got ---\n%s\n--- want ---\n%s", names[i], got, want[i])
					}
				}
			}
		}
	})
}

// Expand returns the view with its runs expanded: the view of a log holding
// the same spans, copies included, one record each.
func (v *View) Expand() *View { return v.expand().Sorted() }

// expand returns a log holding the view's spans one record each, in
// insertion order.
func (v *View) expand() *Log {
	l := &Log{}
	l.syms = v.syms
	for j := range v.n {
		l.push(v.record(j))
	}
	return l
}
