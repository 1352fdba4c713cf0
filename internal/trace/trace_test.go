package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func sampleLog() *Log {
	l := New()
	l.Add(Span{Kind: kindKernel, Label: "jacobi", Track: "gpu0.s", Start: 0, End: 100})
	l.Add(Span{Kind: KindTransfer, Label: "gpu0->gpu1", Track: "intra", Start: 50, End: 150, Bytes: 4096})
	l.Add(Span{Kind: KindTransfer, Label: "gpu1->gpu0", Track: "intra", Start: 60, End: 160, Bytes: 4096})
	l.Add(Span{Kind: KindStreamOp, Label: "memcpy", Track: "gpu0.s", Start: 100, End: 110})
	return l
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add(Span{Kind: kindKernel})
	if l.Len() != 0 || l.Sorted().Len() != 0 {
		t.Fatal("nil log not inert")
	}
	if got := l.Sorted().Summarize(); len(got.rows) != 0 {
		t.Fatal("nil log summary not empty")
	}
}

// TestFilterAndDur reads the transfer spans back out of the log's view, in
// start order, and their durations.
func TestFilterAndDur(t *testing.T) {
	l := sampleLog()
	var tr []Span
	for s := range l.Sorted().Spans() {
		if s.Kind == KindTransfer {
			tr = append(tr, s)
		}
	}
	if len(tr) != 2 {
		t.Fatalf("transfers = %d", len(tr))
	}
	if d := tr[0].End.Sub(tr[0].Start); d != 100 || tr[0].Label != "gpu0->gpu1" {
		t.Fatalf("first transfer = %+v, dur %v", tr[0], d)
	}
}

func TestSummarize(t *testing.T) {
	l := sampleLog()
	s := l.Sorted().Summarize()
	if len(s.rows) != 3 {
		t.Fatalf("rows = %d", len(s.rows))
	}
	// Transfers dominate busy time: 200ns total on track "intra".
	top := s.rows[0]
	if top.kind != KindTransfer || top.track != "intra" ||
		top.busy != 200 || top.count != 2 || top.bytes != 8192 {
		t.Fatalf("top row = %+v", top)
	}
	out := s.Render()
	for _, want := range []string{"transfer", "intra", "8192", "kernel"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if err := l.Sorted().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 4 {
		t.Fatalf("events = %d", len(events))
	}
	ev := events[1]
	if ev["name"] != "gpu0->gpu1" || ev["ph"] != "X" || ev["cat"] != "transfer" {
		t.Fatalf("event = %v", ev)
	}
	if ev["dur"].(float64) != sim.Duration(100).Micros() {
		t.Fatalf("dur = %v", ev["dur"])
	}
	args := ev["args"].(map[string]any)
	if args["bytes"].(float64) != 4096 {
		t.Fatalf("bytes = %v", args["bytes"])
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		kindKernel: "kernel", KindStreamOp: "stream-op",
		KindTransfer: "transfer", kindHost: "host",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %s", int(k), k)
		}
	}
}

// TestRepeatFolds: a ping-pong repeated 3 000 times stores its period once,
// sorts it as one band, and its critical path walks a period once and
// repeats it; every analysis renders what it renders over the expanded log,
// and at 100 copies what the reference renders over the expanded spans.
func TestRepeatFolds(t *testing.T) {
	for _, track := range []string{"inter", "intra"} {
		for _, copies := range []int{100, 3000} {
			l, spans := replay(periodicOps(copies, 100, track))
			v := l.Sorted()
			if l.stored > 16 || len(v.bands) != 1 || v.bands[0].count < copies-10 || len(v.order) > 32 {
				t.Errorf("%s: %d records stored, %d explicit spans, bands %+v: want the copies folded", track, l.stored, len(v.order), v.bands)
			}
			cp := CriticalPath(v)
			if len(cp.chain) > 64 {
				t.Errorf("%s: critical path holds %d positions for %d spans: want the repeating stretch once", track, len(cp.chain), cp.Count())
			}
			horizon := spans[len(spans)-1].End
			want := analyses(t, v.expand(), horizon)
			if copies < 1000 {
				want = referenceAnalyses(t, spans, horizon)
			}
			for i, got := range analyses(t, l, horizon) {
				if got != want[i] {
					t.Errorf("%s: analysis %d differs:\n--- got ---\n%.2000s\n--- want ---\n%.2000s", track, i, got, want[i])
				}
			}
		}
	}
}
