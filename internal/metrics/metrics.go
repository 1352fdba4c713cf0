// Package metrics is the seed-deterministic metrics registry of the
// simulated stack: counters, gauges, and virtual-time histograms that the
// engine, fabric, and communication backends update as a run executes.
//
// Design constraints, in order:
//
//   - Zero overhead when disabled. A nil *Registry is the disabled registry
//     and every instrument handle it hands out is nil; all methods are
//     nil-safe no-ops, so instrumentation sites need no conditionals and the
//     sim hot path (Proc.Advance) stays zero-alloc — pinned by
//     sim.TestAdvanceAllocationGuard.
//   - Deterministic output. Values depend only on virtual-time events, never
//     wall clock; snapshots sort by name, so identical runs render identical
//     bytes at any worker count. Per-cell registries of a parallel sweep are
//     merged in cell-index order (see internal/bench/runner.go for the
//     ownership rule).
//   - No dependencies beyond the standard library, so every layer (including
//     internal/sim) can import it without cycles. Durations are observed as
//     plain int64 nanoseconds for the same reason.
//
// Instruments are resolved by name (Counter/Gauge/Histogram); resolving the
// same name twice returns the same instrument. Hot paths resolve their
// handles once at setup and keep the pointer.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The nil counter discards
// updates. Updates are atomic: the live telemetry server snapshots the
// registry from its own goroutine while the run updates it.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative n is ignored: counters only go
// up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value reports the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last/extremum-valued float64. The nil gauge discards updates.
// A mutex covers the telemetry server's mid-run reads.
type Gauge struct {
	mu  sync.Mutex
	v   float64
	set bool
}

// Set assigns the gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v, g.set = v, true
	g.mu.Unlock()
}

// Max raises the gauge to v if v exceeds the current value (or the gauge is
// unset). Used for high-water marks such as queue depths.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if !g.set || v > g.v {
		g.v, g.set = v, true
	}
	g.mu.Unlock()
}

// value reports the gauge value and whether it was ever set.
func (g *Gauge) value() (float64, bool) {
	if g == nil {
		return 0, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v, g.set
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i)
// (bucket 0 counts zeros). 64 buckets cover every non-negative int64.
const histBuckets = 65

// Histogram accumulates non-negative int64 observations (virtual-time
// nanoseconds by convention) into power-of-two buckets plus count/sum/
// min/max. The nil histogram discards updates. A mutex covers the telemetry
// server's mid-run reads; all the aggregates are order-free functions of
// the observation multiset.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      int64
	min, max int64
	buckets  [histBuckets]int64
}

// Observe records one value; negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(uint64(v))]++
	h.mu.Unlock()
}

// Registry resolves instruments by name. The nil registry is the disabled
// registry: it resolves every name to a nil instrument.
//
// Resolution and Snapshot are safe for concurrent use: a read-write mutex
// guards the name maps, so a live telemetry scraper may call Snapshot while
// a run resolves new instruments (e.g. fabric occupancy gauges published at
// the end of a cell). The instruments themselves are independently
// thread-safe, and hot paths resolve their handles once at setup, so the
// lock is never taken on the simulation hot path.
type Registry struct {
	mu          sync.RWMutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	counterList []*Counter   // in creation order, a mark's (AppendMark)
	histList    []*Histogram // likewise
}

// New returns an enabled, empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter resolves (creating if needed) the named counter; nil on the nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
		r.counterList = append(r.counterList, c)
	}
	return c
}

// Gauge resolves the named gauge; nil on the nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram resolves the named histogram; nil on the nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
		r.histList = append(r.histList, h)
	}
	return h
}

// AppendMark appends a mark of the registry to b for Repeat: the number of
// counters, their values, then each histogram's count, sum and buckets.
func (r *Registry) AppendMark(b []int64) []int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b = append(b, int64(len(r.counterList)))
	for _, c := range r.counterList {
		b = append(b, c.Value())
	}
	for _, h := range r.histList {
		h.mu.Lock()
		b = append(append(b, h.count, h.sum), h.buckets[:]...)
		h.mu.Unlock()
	}
	return b
}

// Repeat adds n times what every counter and histogram (count, sum, each
// bucket) gained since mark (AppendMark), as if that stretch ran n more
// times: a fast-forward's skip of n cycles. Gauges are not repeated: they
// hold extrema (a Max) and end-of-run values, which a repeated stretch does
// not move, as it does not a histogram's min and max.
func (r *Registry) Repeat(mark []int64, n int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	nc := int(mark[0])
	for i, c := range r.counterList {
		var was int64
		if i < nc {
			was = mark[1+i]
		}
		c.Add(n * (c.Value() - was))
	}
	var zero [2 + histBuckets]int64
	for i, h := range r.histList {
		was := zero[:]
		if off := 1 + nc + i*len(zero); off < len(mark) {
			was = mark[off : off+len(zero)]
		}
		h.mu.Lock()
		h.count += n * (h.count - was[0])
		h.sum += n * (h.sum - was[1])
		for j := range h.buckets {
			h.buckets[j] += n * (h.buckets[j] - was[2+j])
		}
		h.mu.Unlock()
	}
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// gaugeValue is one set gauge in a snapshot (unset gauges are omitted).
type gaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// histValue is one histogram in a snapshot. Buckets lists only the occupied
// power-of-two buckets as (upper-bound exponent, count) pairs, smallest
// first.
type histValue struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	Buckets []histBucket `json:"buckets,omitempty"`
}

// histBucket is one occupied histogram bucket: Count observations v with
// bits.Len64(v) == Exp (so v < 2^Exp, and v >= 2^(Exp-1) for Exp > 0).
type histBucket struct {
	Exp   int   `json:"exp"`
	Count int64 `json:"count"`
}

// mean reports the histogram's average observation (0 when empty).
func (h histValue) mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry, sorted by name within each
// instrument kind, so rendering and marshalling are deterministic.
type Snapshot struct {
	Counters   []CounterValue `json:"counters"`
	Gauges     []gaugeValue   `json:"gauges"`
	Histograms []histValue    `json:"histograms"`
}

// Snapshot copies the registry's current state. A nil registry snapshots
// empty. Snapshot may run concurrently with instrument updates and with
// resolution of new instruments; each instrument is copied atomically (under
// its own lock), so every value in the snapshot is a real point-in-time
// reading, never a torn one.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		if v, set := g.value(); set {
			s.Gauges = append(s.Gauges, gaugeValue{Name: name, Value: v})
		}
	}
	for name, h := range r.hists {
		h.mu.Lock()
		if h.count == 0 {
			h.mu.Unlock()
			continue
		}
		hv := histValue{Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		for exp, n := range h.buckets {
			if n > 0 {
				hv.Buckets = append(hv.Buckets, histBucket{Exp: exp, Count: n})
			}
		}
		h.mu.Unlock()
		s.Histograms = append(s.Histograms, hv)
	}
	s.sort()
	return s
}

func (s *Snapshot) sort() {
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
}

// Merge combines snapshots in argument order: counters and histograms sum;
// gauges take the maximum (they record extrema such as queue depths and
// occupancy, where the sweep-wide high-water mark is the meaningful
// aggregate). Merging in cell-index order keeps parallel-sweep output
// bit-identical to serial execution.
func Merge(snaps ...Snapshot) Snapshot {
	counters := map[string]int64{}
	gauges := map[string]float64{}
	gaugeSet := map[string]bool{}
	hists := map[string]*histValue{}
	for _, s := range snaps {
		for _, c := range s.Counters {
			counters[c.Name] += c.Value
		}
		for _, g := range s.Gauges {
			if !gaugeSet[g.Name] || g.Value > gauges[g.Name] {
				gauges[g.Name] = g.Value
			}
			gaugeSet[g.Name] = true
		}
		for _, h := range s.Histograms {
			acc := hists[h.Name]
			if acc == nil {
				cp := h
				cp.Buckets = append([]histBucket(nil), h.Buckets...)
				hists[h.Name] = &cp
				continue
			}
			if h.Min < acc.Min {
				acc.Min = h.Min
			}
			if h.Max > acc.Max {
				acc.Max = h.Max
			}
			acc.Count += h.Count
			acc.Sum += h.Sum
			acc.Buckets = mergeBuckets(acc.Buckets, h.Buckets)
		}
	}
	var out Snapshot
	for name, v := range counters {
		out.Counters = append(out.Counters, CounterValue{Name: name, Value: v})
	}
	for name, v := range gauges {
		out.Gauges = append(out.Gauges, gaugeValue{Name: name, Value: v})
	}
	for _, h := range hists {
		out.Histograms = append(out.Histograms, *h)
	}
	out.sort()
	return out
}

// mergeBuckets sums two exponent-sorted bucket lists.
func mergeBuckets(a, b []histBucket) []histBucket {
	byExp := map[int]int64{}
	for _, bk := range a {
		byExp[bk.Exp] += bk.Count
	}
	for _, bk := range b {
		byExp[bk.Exp] += bk.Count
	}
	out := make([]histBucket, 0, len(byExp))
	for exp, n := range byExp {
		out = append(out, histBucket{Exp: exp, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Exp < out[j].Exp })
	return out
}

// Empty reports whether the snapshot holds no instruments.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// Render formats the snapshot as an aligned, sorted text block. Histogram
// durations are nanosecond totals; the mean is appended for readability.
func (s Snapshot) Render() string {
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "%-44s %16d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		if math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
			fmt.Fprintf(&b, "%-44s %16s\n", g.Name, "n/a")
			continue
		}
		fmt.Fprintf(&b, "%-44s %16.6g\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "%-44s count=%-8d sum=%-14d min=%-10d max=%-12d mean=%.6g\n",
			h.Name, h.Count, h.Sum, h.Min, h.Max, h.mean())
	}
	return b.String()
}

// WriteJSON writes the snapshot as deterministic, indented JSON: fields are
// struct-ordered and instruments are name-sorted, so identical snapshots
// produce identical bytes. Hand-rolled (rather than encoding/json) to keep
// the format stable and free of float round-trip surprises.
func (s Snapshot) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{\n  \"counters\": [")
	for i, c := range s.Counters {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n    {\"name\": %q, \"value\": %d}", c.Name, c.Value)
	}
	if len(s.Counters) > 0 {
		b.WriteString("\n  ")
	}
	b.WriteString("],\n  \"gauges\": [")
	for i, g := range s.Gauges {
		if i > 0 {
			b.WriteString(",")
		}
		// JSON has no NaN/Infinity literals (encoding/json rejects them
		// outright); a poisoned gauge renders as null so one bad Set cannot
		// invalidate the whole export.
		if math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
			fmt.Fprintf(&b, "\n    {\"name\": %q, \"value\": null}", g.Name)
			continue
		}
		fmt.Fprintf(&b, "\n    {\"name\": %q, \"value\": %.17g}", g.Name, g.Value)
	}
	if len(s.Gauges) > 0 {
		b.WriteString("\n  ")
	}
	b.WriteString("],\n  \"histograms\": [")
	for i, h := range s.Histograms {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n    {\"name\": %q, \"count\": %d, \"sum\": %d, \"min\": %d, \"max\": %d, \"buckets\": [",
			h.Name, h.Count, h.Sum, h.Min, h.Max)
		for j, bk := range h.Buckets {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "{\"exp\": %d, \"count\": %d}", bk.Exp, bk.Count)
		}
		b.WriteString("]}")
	}
	if len(s.Histograms) > 0 {
		b.WriteString("\n  ")
	}
	b.WriteString("]\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
