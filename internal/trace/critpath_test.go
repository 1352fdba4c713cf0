package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

// viewOf adds the spans to a fresh log in the order given and returns its
// sorted view.
func viewOf(spans ...Span) *View {
	l := New()
	for _, s := range spans {
		l.Add(s)
	}
	return l.Sorted()
}

// labels lists the chain's span labels in order.
func (cp CritPath) labels() string {
	var out []string
	for i := range cp.Count() {
		out = append(out, cp.v.span(cp.pos(i)).Label)
	}
	return strings.Join(out, ",")
}

func TestCriticalPathLinearChain(t *testing.T) {
	spans := []Span{
		{Kind: kindKernel, Label: "a", Track: "gpu0.s", Rank: 0, Start: 0, End: 100},
		{Kind: kindKernel, Label: "b", Track: "gpu0.s", Rank: 0, Start: 100, End: 250},
		{Kind: kindKernel, Label: "c", Track: "gpu0.s", Rank: 0, Start: 250, End: 300},
	}
	cp := CriticalPath(viewOf(spans...))
	if cp.Len != 300 || cp.End != 300 || cp.Count() != 3 {
		t.Fatalf("chain = %v len=%v end=%v", cp.Count(), cp.Len, cp.End)
	}
	if cp.Compute != 300 || cp.Blocked != 0 {
		t.Fatalf("breakdown = %+v", cp)
	}
}

// A diamond with a message edge: the path must cross the transfer from rank
// 0 to rank 1, not stay on rank 1's shorter local history.
//
//	rank0: kernel [0,100] --- transfer gpu0->gpu1 [100,150] ---\
//	rank1: kernel [0,80]                                        kernel [150,400]
func TestCriticalPathMessageEdge(t *testing.T) {
	spans := []Span{
		{Kind: kindKernel, Label: "k0", Track: "gpu0.s", Rank: 0, Start: 0, End: 100},
		{Kind: kindKernel, Label: "k1a", Track: "gpu1.s", Rank: 1, Start: 0, End: 80},
		{Kind: KindTransfer, Label: "gpu0->gpu1", Track: "intra", Rank: 0, Src: 0, Dst: 1,
			Start: 100, End: 150, Bytes: 4096},
		{Kind: kindKernel, Label: "k1b", Track: "gpu1.s", Rank: 1, Start: 150, End: 400},
	}
	cp := CriticalPath(viewOf(spans...))
	if cp.Len != 400 { // 100 + 50 + 250, beating 80 + 250 = 330
		t.Fatalf("len = %v, want 400", cp.Len)
	}
	if got := cp.labels(); got != "k0,gpu0->gpu1,k1b" {
		t.Fatalf("chain = %s", got)
	}
	if cp.Compute != 350 || cp.Intra != 50 || cp.Inter != 0 || cp.Blocked != 0 {
		t.Fatalf("breakdown = %+v", cp)
	}
}

// A gap in the best chain counts as blocked time: Compute+Intra+Inter+Blocked
// must equal the chain's end.
func TestCriticalPathGapIsBlocked(t *testing.T) {
	spans := []Span{
		{Kind: kindKernel, Label: "a", Track: "gpu0.s", Rank: 0, Start: 0, End: 100},
		{Kind: kindKernel, Label: "b", Track: "gpu0.s", Rank: 0, Start: 300, End: 500},
	}
	cp := CriticalPath(viewOf(spans...))
	if cp.Len != 300 || cp.End != 500 || cp.Blocked != 200 {
		t.Fatalf("cp = %+v", cp)
	}
	if cp.Compute+cp.Intra+cp.Inter+cp.Blocked != sim.Duration(cp.End) {
		t.Fatalf("components do not sum to end: %+v", cp)
	}
}

// Overlapping spans on independent tracks must not chain: two parallel
// kernels yield a path of just the longer one.
func TestCriticalPathParallelNotChained(t *testing.T) {
	spans := []Span{
		{Kind: kindKernel, Label: "a", Track: "gpu0.s", Rank: 0, Start: 0, End: 100},
		{Kind: kindKernel, Label: "b", Track: "gpu1.s", Rank: 1, Start: 0, End: 140},
	}
	cp := CriticalPath(viewOf(spans...))
	if cp.Len != 140 || cp.labels() != "b" {
		t.Fatalf("cp = %+v", cp)
	}
}

// The analyses read one sorted view, whatever order the log was filled in
// (FuzzSpanAnalysis checks this for every analysis on generated logs).
func TestCriticalPathInputOrderIndependent(t *testing.T) {
	spans := []Span{
		{Kind: kindKernel, Label: "k0", Track: "gpu0.s", Rank: 0, Start: 0, End: 100},
		{Kind: KindTransfer, Label: "gpu0->gpu1", Track: "inter", Rank: 0, Src: 0, Dst: 1,
			Start: 100, End: 180, Bytes: 1 << 20},
		{Kind: kindKernel, Label: "k1", Track: "gpu1.s", Rank: 1, Start: 180, End: 260},
	}
	want := CriticalPath(viewOf(spans...)).Render()
	if got := CriticalPath(viewOf(spans[2], spans[0], spans[1])).Render(); got != want {
		t.Fatalf("order-dependent critical path:\n%s\nvs\n%s", got, want)
	}
	if cp := CriticalPath(viewOf(spans...)); cp.Inter != 80 {
		t.Fatalf("inter = %v, want 80", cp.Inter)
	}
}

func TestAttributePartitionsExactly(t *testing.T) {
	end := sim.Time(200)
	spans := []Span{
		{Kind: kindKernel, Label: "k", Track: "gpu0.s", Rank: 0, Start: 0, End: 100},
		// Overlaps the kernel on rank 0 for [50,100]; inter has priority.
		{Kind: KindTransfer, Label: "gpu0->gpu1", Track: "inter", Rank: 0, Src: 0, Dst: 1,
			Start: 50, End: 150, Bytes: 4096},
	}
	rows := Attribute(viewOf(spans...), end)
	if len(rows) != 2 {
		t.Fatalf("ranks = %d", len(rows))
	}
	r0 := rows[0]
	if r0.Compute != 50 || r0.Inter != 100 || r0.Intra != 0 || r0.Blocked != 50 {
		t.Fatalf("rank0 = %+v", r0)
	}
	r1 := rows[1]
	if r1.Inter != 100 || r1.Compute != 0 || r1.Blocked != 100 {
		t.Fatalf("rank1 = %+v", r1)
	}
	for _, r := range rows {
		if r.Compute+r.Intra+r.Inter+r.Blocked != r.Total || r.Total != sim.Duration(end) {
			t.Fatalf("rank %d does not partition [0,%v]: %+v", r.Rank, end, r)
		}
	}
}

func TestAttributeClampsToHorizon(t *testing.T) {
	// A span running past end must be clipped, not produce negative blocked.
	rows := Attribute(viewOf(Span{Kind: kindKernel, Track: "gpu0.s", Rank: 0, Start: 50, End: 500}), 100)
	if rows[0].Compute != 50 || rows[0].Blocked != 50 {
		t.Fatalf("rows[0] = %+v", rows[0])
	}
}

func TestCommMatrix(t *testing.T) {
	m := BuildCommMatrix(viewOf(
		Span{Kind: KindTransfer, Src: 0, Dst: 1, Bytes: 100, Start: 0, End: 1},
		Span{Kind: KindTransfer, Src: 0, Dst: 1, Bytes: 50, Start: 1, End: 2},
		Span{Kind: KindTransfer, Src: 2, Dst: 0, Bytes: 7, Start: 0, End: 3},
		Span{Kind: kindKernel, Rank: 5, Start: 0, End: 1}, // ignored
	))
	if m.N != 3 {
		t.Fatalf("N = %d", m.N)
	}
	if m.Bytes[0][1] != 150 || m.Count[0][1] != 2 || m.Bytes[2][0] != 7 {
		t.Fatalf("matrix = %+v", m)
	}
	out := m.Render()
	if !strings.Contains(out, "150(2)") || !strings.Contains(out, "7(1)") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestZeroDurationSpansAreSafe(t *testing.T) {
	l := New()
	l.Add(Span{Kind: KindTransfer, Src: 0, Dst: 1, Bytes: 4096, Start: 100, End: 100})
	if bw := bandwidth(l.rec(0).bytes, l.rec(0).dur()); bw != 0 {
		t.Fatalf("zero-duration bandwidth = %v, want 0", bw)
	}
	sum := l.Sorted().Summarize()
	if bw := bandwidth(sum.rows[0].bytes, sum.rows[0].busy); bw != 0 {
		t.Fatalf("summary bandwidth = %v, want 0", bw)
	}
	out := sum.Render()
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Fatalf("summary render leaked Inf/NaN:\n%s", out)
	}
	var buf bytes.Buffer
	if err := l.Sorted().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Inf") || strings.Contains(buf.String(), "null") {
		t.Fatalf("chrome export leaked Inf:\n%s", buf.String())
	}
}

func TestSortSpansStable(t *testing.T) {
	// Equal-timestamp spans order by track/kind/label, not insertion order.
	a := Span{Kind: kindKernel, Label: "x", Track: "b", Start: 10, End: 20}
	b := Span{Kind: kindKernel, Label: "x", Track: "a", Start: 10, End: 20}
	s1, s2 := viewOf(a, b).span(0), viewOf(b, a).span(0)
	if s1 != s2 || s1.Track != "a" {
		t.Fatalf("sort not canonical: %+v vs %+v", s1, s2)
	}
}

func TestWriteChromeCells(t *testing.T) {
	cellA := ChromeCell{Name: "lat 8B", Spans: viewOf(
		Span{Kind: kindKernel, Label: "k", Track: "gpu0.s", Start: 0, End: 10},
	)}
	cellB := ChromeCell{Name: "bw 1MiB", Spans: viewOf(
		Span{Kind: KindTransfer, Label: "gpu0->gpu1", Track: "inter", Src: 0, Dst: 1,
			Start: 0, End: 10, Bytes: 1 << 20},
	)}
	var buf bytes.Buffer
	if err := WriteChromeCells(&buf, []ChromeCell{cellA, cellB}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"process_name"`, `"lat 8B"`, `"bw 1MiB"`, `"pid":2`} {
		if !strings.Contains(out, want) {
			t.Fatalf("multi-cell export missing %s:\n%s", want, out)
		}
	}
	var buf2 bytes.Buffer
	if err := WriteChromeCells(&buf2, []ChromeCell{cellA, cellB}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("multi-cell export not byte-stable")
	}
}
