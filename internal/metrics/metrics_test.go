package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsDisabled(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must resolve nil instruments, got %v %v %v", c, g, h)
	}
	// All nil-instrument methods must be safe no-ops.
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Max(2)
	h.Observe(3)
	if c.Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if v, ok := g.value(); ok || v != 0 {
		t.Fatal("nil gauge must read unset")
	}
	if s := r.Snapshot(); !s.Empty() {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("sim.events")
	c.Inc()
	c.Add(9)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if r.Counter("sim.events") != c {
		t.Fatal("re-resolving a name must return the same instrument")
	}

	g := r.Gauge("depth")
	g.Max(3)
	g.Max(1)
	if v, ok := g.value(); !ok || v != 3 {
		t.Fatalf("gauge = %v,%v, want 3,true", v, ok)
	}
	g.Set(0.5)
	if v, _ := g.value(); v != 0.5 {
		t.Fatalf("gauge after Set = %v, want 0.5", v)
	}

	h := r.Histogram("lat")
	for _, v := range []int64{0, 1, 1, 3, 1024, -7} {
		h.Observe(v)
	}
	if h.count != 6 || h.sum != 1029 {
		t.Fatalf("hist count/sum = %d/%d, want 6/1029", h.count, h.sum)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := New()
	r.Counter("b").Inc()
	r.Counter("a").Inc()
	r.Gauge("z").Set(1)
	r.Gauge("m").Set(2)
	r.Histogram("h2").Observe(1)
	r.Histogram("h1").Observe(2)
	r.Gauge("never-set") // unset gauges are omitted

	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a" || s.Counters[1].Name != "b" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if len(s.Gauges) != 2 || s.Gauges[0].Name != "m" {
		t.Fatalf("gauges wrong: %+v", s.Gauges)
	}
	if len(s.Histograms) != 2 || s.Histograms[0].Name != "h1" {
		t.Fatalf("histograms wrong: %+v", s.Histograms)
	}

	var b1, b2 strings.Builder
	if err := s.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("repeated snapshots of the same registry must marshal identically")
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.Counter("c").Add(3)
	b.Counter("c").Add(4)
	b.Counter("only-b").Inc()
	a.Gauge("g").Set(2)
	b.Gauge("g").Set(5) // max wins
	a.Histogram("h").Observe(1)
	a.Histogram("h").Observe(100)
	b.Histogram("h").Observe(7)

	m := Merge(a.Snapshot(), b.Snapshot())
	if len(m.Counters) != 2 || m.Counters[0].Value != 7 || m.Counters[1].Value != 1 {
		t.Fatalf("merged counters wrong: %+v", m.Counters)
	}
	if m.Gauges[0].Value != 5 {
		t.Fatalf("merged gauge = %v, want 5 (max)", m.Gauges[0].Value)
	}
	h := m.Histograms[0]
	if h.Count != 3 || h.Sum != 108 || h.Min != 1 || h.Max != 100 {
		t.Fatalf("merged histogram wrong: %+v", h)
	}
	var total int64
	for _, bk := range h.Buckets {
		total += bk.Count
	}
	if total != 3 {
		t.Fatalf("merged buckets sum to %d, want 3", total)
	}

	// Merge order must not change the result bytes.
	var s1, s2 strings.Builder
	Merge(a.Snapshot(), b.Snapshot()).WriteJSON(&s1)
	Merge(b.Snapshot(), a.Snapshot()).WriteJSON(&s2)
	if s1.String() != s2.String() {
		t.Fatal("merge must be order-independent for identical inputs")
	}
}

// TestWriteJSONNonFiniteGauge is the regression test for NaN/±Inf gauge
// values: encoding/json has no literals for them, so they must render as
// null (and "n/a" in the text renderer) instead of poisoning the export.
func TestWriteJSONNonFiniteGauge(t *testing.T) {
	r := New()
	r.Gauge("bad.nan").Set(math.NaN())
	r.Gauge("bad.posinf").Set(math.Inf(1))
	r.Gauge("bad.neginf").Set(math.Inf(-1))
	r.Gauge("good").Set(1.5)
	r.Counter("c").Inc()

	var b strings.Builder
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Gauges []struct {
			Name  string   `json:"name"`
			Value *float64 `json:"value"`
		} `json:"gauges"`
	}
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("WriteJSON with non-finite gauges is not valid JSON: %v\n%s", err, b.String())
	}
	if len(decoded.Gauges) != 4 {
		t.Fatalf("got %d gauges, want 4:\n%s", len(decoded.Gauges), b.String())
	}
	for _, g := range decoded.Gauges {
		if strings.HasPrefix(g.Name, "bad.") && g.Value != nil {
			t.Fatalf("non-finite gauge %s must decode as null, got %v", g.Name, *g.Value)
		}
		if g.Name == "good" && (g.Value == nil || *g.Value != 1.5) {
			t.Fatalf("finite gauge corrupted: %+v", g)
		}
	}

	out := r.Snapshot().Render()
	if !strings.Contains(out, "n/a") {
		t.Fatalf("Render must show n/a for non-finite gauges:\n%s", out)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("Render leaked a non-finite literal:\n%s", out)
	}
}

// TestRegistryConcurrentAccess is the -race stress test for live telemetry:
// writers resolve instruments by name and update them while a reader takes
// mid-flight snapshots. Every snapshot must be internally consistent — each
// histogram's aggregates must describe a real observation multiset (buckets
// sum to the count, the sum bounded by min·count and max·count), and every
// gauge must hold a value some writer actually set — i.e. snapshots are
// never torn.
func TestRegistryConcurrentAccess(t *testing.T) {
	r := New()
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Rotate names so resolution races with snapshotting, not
				// just instrument updates.
				r.Counter(fmt.Sprintf("c.%d", i%7)).Inc()
				r.Gauge(fmt.Sprintf("g.%d", i%5)).Set(float64(1 + i%3))
				r.Histogram(fmt.Sprintf("h.%d", i%3)).Observe(int64(i % 100))
			}
		}(w)
	}
	go func() { wg.Wait(); close(stop) }()

	var last int64 // counters are monotone across snapshots
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		s := r.Snapshot()
		var totalCounters int64
		for _, c := range s.Counters {
			totalCounters += c.Value
		}
		if totalCounters < last {
			t.Fatalf("counter total went backwards: %d -> %d", last, totalCounters)
		}
		last = totalCounters
		for _, g := range s.Gauges {
			if g.Value < 1 || g.Value > 3 {
				t.Fatalf("gauge %s holds %v, a value no writer ever set", g.Name, g.Value)
			}
		}
		for _, h := range s.Histograms {
			var bucketTotal int64
			for _, bk := range h.Buckets {
				bucketTotal += bk.Count
			}
			if bucketTotal != h.Count {
				t.Fatalf("torn histogram %s: buckets sum %d != count %d", h.Name, bucketTotal, h.Count)
			}
			if h.Sum < h.Min*h.Count || h.Sum > h.Max*h.Count {
				t.Fatalf("torn histogram %s: sum %d outside [%d, %d]",
					h.Name, h.Sum, h.Min*h.Count, h.Max*h.Count)
			}
		}
	}
	if want := int64(writers * perWriter); last != want {
		// The final snapshot (taken after stop) must see every increment.
		s := r.Snapshot()
		var total int64
		for _, c := range s.Counters {
			total += c.Value
		}
		if total != want {
			t.Fatalf("final counter total %d, want %d", total, want)
		}
	}
}

func TestRenderListsEveryKind(t *testing.T) {
	r := New()
	r.Counter("mpi.eager").Add(2)
	r.Counter("sim.events").Add(9)
	r.Gauge("mpi.matchq.depth").Set(4)
	r.Histogram("mpi.coll.allreduce").Observe(100)

	out := r.Snapshot().Render()
	for _, want := range []string{"mpi.eager", "sim.events", "mpi.matchq.depth", "mpi.coll.allreduce", "mean=100"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRepeat: repeating the stretch since a mark n times reads as running it
// n more times — counters and a histogram's count, sum and buckets scale,
// instruments the stretch created included — while a histogram's min and
// max and every gauge stay as the stretch left them.
func TestRepeat(t *testing.T) {
	before := func(r *Registry) {
		r.Counter("a").Add(5)
		r.Histogram("h").Observe(1)
		r.Histogram("h").Observe(100)
		r.Gauge("depth").Max(9)
	}
	stretch := func(r *Registry) {
		r.Counter("a").Add(3)
		r.Counter("b").Add(2)
		r.Histogram("h").Observe(100)
		r.Histogram("h").Observe(7)
		r.Histogram("new").Observe(4)
		r.Gauge("depth").Max(2)
		r.Gauge("occ").Set(0.5)
	}
	fast, full := New(), New()
	before(fast)
	before(full)
	mark := fast.AppendMark(nil)
	stretch(fast)
	fast.Repeat(mark, 3)
	for range 4 {
		stretch(full)
	}
	got := fast.Snapshot()
	if want := full.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("repeated\n%s\nwant\n%s", got.Render(), want.Render())
	}
	h := got.Histograms[0]
	if got.Counters[0].Value != 17 || got.Counters[1].Value != 8 || h.Count != 10 || h.Sum != 529 || h.Min != 1 || h.Max != 100 ||
		!reflect.DeepEqual(h.Buckets, []histBucket{{1, 1}, {3, 4}, {7, 5}}) || got.Gauges[0].Value != 9 || got.Gauges[1].Value != 0.5 {
		t.Errorf("repeated\n%s", got.Render())
	}
}
