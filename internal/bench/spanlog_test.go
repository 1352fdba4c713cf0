package bench

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// syntheticLog is a span log shaped like a traced cell: each step, every
// rank runs a kernel on its stream and then sends to the next rank, over the
// intra-node link within a four-rank node and the inter-node link across
// nodes.
func syntheticLog(spans, ranks int) *trace.Log {
	streams, labels := make([]string, ranks), make([]string, ranks)
	for r := range ranks {
		streams[r] = fmt.Sprintf("gpu%d.s0", r)
		labels[r] = fmt.Sprintf("gpu%d->gpu%d", r, (r+1)%ranks)
	}
	l := trace.New()
	for i := 0; l.Len() < spans; i++ {
		r, at := i%ranks, sim.Time(i/ranks)*1000
		dst, track := (r+1)%ranks, "intra"
		if r/4 != dst/4 {
			track = "inter"
		}
		l.Add(trace.Span{Kind: trace.KindStreamOp, Label: "kernel", Track: streams[r],
			Rank: r, Src: r, Dst: r, Start: at, End: at + 600})
		l.Add(trace.Span{Kind: trace.KindTransfer, Label: labels[r], Track: track,
			Rank: r, Src: r, Dst: dst, Start: at + 600, End: at + 900, Bytes: 4096})
	}
	return l
}

// analyse is what a /query miss does with its span log after the run.
func analyse(l *trace.Log) {
	spans := l.Sorted()
	trace.CriticalPath(spans)
	commSummary(spans)
}

// pointerFree reports whether values of t hold no pointers, so the garbage
// collector never scans them and storing one needs no write barrier.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	}
	return false
}

// periodicLog is syntheticLog with its last step repeated copies times.
func periodicLog(copies int) *trace.Log {
	l := syntheticLog(64, 8)
	l.Repeat(l.Len()-16, l.Len(), copies, 1000)
	return l
}

// TestSpanLogLayout holds the span log to its layout: the record a Log
// stores, and the run record a Repeat stores, hold no pointers and are at
// most 48 bytes each, and the analysis of a miss — sort, critical path,
// traffic — allocates a fixed number of objects whatever the log's length,
// so none is per span, and none per copy of a repeated period.
func TestSpanLogLayout(t *testing.T) {
	for _, field := range []string{"chunks", "runs"} {
		f, ok := reflect.TypeOf(trace.Log{}).FieldByName(field)
		if !ok {
			t.Fatalf("trace.Log no longer stores its records in %s", field)
		}
		rec := f.Type.Elem() // records behind a pointer, in an array or a slice
		for rec.Kind() != reflect.Struct {
			rec = rec.Elem()
		}
		if !pointerFree(rec) || rec.Size() > 48 {
			t.Errorf("trace.Log stores %s (%d bytes) in %s: want a pointer-free record of at most 48 bytes", rec, rec.Size(), field)
		}
	}

	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// A collection cycle allocates a little of its own; hold it off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// A folded log's analysis sorts a period and walks copies until they
	// repeat: more objects than a plain log's, as many at any copy count.
	for _, c := range []struct {
		what         string
		small, large *trace.Log
		most         float64
	}{
		{"spans", syntheticLog(10_000, 8), syntheticLog(40_000, 8), 32},
		{"spans with a repeated step", periodicLog(1_000), periodicLog(100_000), 80},
	} {
		a := testing.AllocsPerRun(10, func() { analyse(c.small) })
		b := testing.AllocsPerRun(10, func() { analyse(c.large) })
		t.Logf("analysis of a miss: %.0f objects at %d %s, %.0f at %d", a, c.small.Len(), c.what, b, c.large.Len())
		if a != b || b > c.most {
			t.Errorf("analysis allocates %.0f objects at %d %s and %.0f at %d: want the same, at most %.0f", a, c.small.Len(), c.what, b, c.large.Len(), c.most)
		}
	}
}

// BenchmarkSpanAnalysis times a miss's analysis (sort, critical path,
// traffic) over the span logs of the 32 grid cells at 2 KiB — what
// BenchmarkColdCell's misses analyse. It reports ns per stored record, what
// the analysis walks (a fast-forward's Repeat is one run record however many
// copies it folds), and ns per span, copies included.
//
//	go test ./internal/bench -run '^$' -bench SpanAnalysis -cpu 1
func BenchmarkSpanAnalysis(b *testing.B) {
	var logs []*trace.Log
	spans, records := 0, 0
	for _, s := range pinGrid() {
		s.Bytes = 2 << 10
		log := trace.New()
		if _, _, err := runSpec(s.Normalize(), &Collector{log: log}); err != nil {
			b.Fatal(err)
		}
		logs, spans, records = append(logs, log), spans+log.Len(), records+storedRecords(log)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, l := range logs {
			analyse(l)
		}
	}
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perOp/float64(records), "ns/record")
	b.ReportMetric(perOp/float64(spans), "ns/span")
}

// storedRecords is the log's record count: its spans with each Repeat's
// copies folded into one run record. The trace package exports no such
// count, so the tests read its field.
func storedRecords(l *trace.Log) int {
	return int(reflect.ValueOf(l).Elem().FieldByName("stored").Int())
}
