package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Harness spans: one span around every call the benchmark makes into a
// layer, recorded from the benchmark's own files. The tree is
// workload -> op -> {build inputs, the layer call, digest}. Spans stay in
// memory and are written as Chrome-trace JSON when the run ends. Spans inside the program are a later
// change (ROADMAP item 6).

type span struct {
	name       string
	op         int   // operation id; every span of one operation shares it
	parent     int32 // index of the parent span in the same log, -1 = the workload span
	start, end time.Duration
}

type spanLog struct {
	t0    time.Time
	spans []span
}

// opTrace is what the traced pass hands one operation: where to record its
// spans, and the registry and simulator trace log to attach to its cell. A
// nil *opTrace is the untraced run; every method is nil-safe so operations
// are written once.
type opTrace struct {
	log  *spanLog // nil when this operation is not sampled for spans
	op   int
	root int32
	reg  *metrics.Registry
	sim  *trace.Log
}

func (t *opTrace) registry() *metrics.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

func (t *opTrace) simTrace() *trace.Log {
	if t == nil {
		return nil
	}
	return t.sim
}

// begin opens a child span of the operation and returns its handle (-1 when
// nothing is recorded).
func (t *opTrace) begin(name string) int32 {
	if t == nil || t.log == nil {
		return -1
	}
	return t.log.begin(name, t.op, t.root)
}

func (t *opTrace) end(h int32) {
	if h >= 0 {
		t.log.end(h)
	}
}

func (l *spanLog) begin(name string, op int, parent int32) int32 {
	l.spans = append(l.spans, span{name: name, op: op, parent: parent, start: time.Since(l.t0)})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(h int32) { l.spans[h].end = time.Since(l.t0) }

// writeChromeTrace writes the workload span and the pass's spans in the
// Chrome trace-event format (load in chrome://tracing or Perfetto); args
// carry the operation id and the parent span's name.
func writeChromeTrace(path, workload string, wall time.Duration, l *spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"traceEvents":[`+"\n"+`{"name":%q,"ph":"X","ts":0,"dur":%.3f,"pid":1,"tid":0,"args":{"parent":""}}`,
		workload, us(wall))
	for _, s := range l.spans {
		parent := workload
		if s.parent >= 0 {
			parent = l.spans[s.parent].name
		}
		fmt.Fprintf(w, ",\n"+`{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":1,"args":{"op":%d,"parent":%q}}`,
			s.name, us(s.start), us(s.end-s.start), s.op, parent)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
