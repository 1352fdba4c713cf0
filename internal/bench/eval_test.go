package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// evalTestSpecs is a small mixed batch: both net workloads, an allreduce,
// a topology override, a fault plan, and a second machine.
func evalTestSpecs() []spec.Spec {
	return []spec.Spec{
		{Workload: spec.WorkloadNetLatency, Bytes: 4096},
		{Workload: spec.WorkloadNetLatency, Bytes: 4096, Inter: true},
		{Workload: spec.WorkloadNetBandwidth, Bytes: 1 << 16, Inter: true},
		{Workload: spec.WorkloadAllreduce, Ranks: 8, Bytes: 1 << 16},
		{Workload: spec.WorkloadAllreduce, Ranks: 16, Bytes: 4096, Topology: "fattree:4", Alg: "hierarchical"},
		{Workload: spec.WorkloadNetLatency, Bytes: 8192, Machine: "LUMI"},
		{Workload: spec.WorkloadNetLatency, Bytes: 4096, FaultMode: spec.FaultDegrade, Severity: 0.5, Inter: true},
	}
}

// evalAll evaluates the batch as one Sweep of EvalSpec cells at a fixed
// GOMAXPROCS and returns the bodies.
func evalAll(t *testing.T, specs []spec.Spec, c *cache.Cache, procs int) [][]byte {
	t.Helper()
	setProcs(t, procs)
	bodies, _, err := Sweep(nil, len(specs), func(i int, _ *Collector) ([]byte, CellProfile, error) {
		body, _, err := EvalSpec(specs[i], EvalOptions{cache: c})
		return body, CellProfile{}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return bodies
}

// TestEvalCacheHitByteIdentical is the load-bearing determinism test: the
// same batch evaluated cache-cold at GOMAXPROCS 1, cache-cold at 8, and
// cache-warm must produce byte-identical documents per spec. Run under -race
// in CI.
func TestEvalCacheHitByteIdentical(t *testing.T) {
	specs := evalTestSpecs()

	cold1 := evalAll(t, specs, cache.New(cache.Options{}), 1)

	c8 := cache.New(cache.Options{})
	cold8 := evalAll(t, specs, c8, 8)
	warm8 := evalAll(t, specs, c8, 8)

	for i := range specs {
		if !bytes.Equal(cold1[i], cold8[i]) {
			t.Errorf("spec %d: GOMAXPROCS 1 and 8 cold runs differ:\n%s\n%s",
				i, cold1[i], cold8[i])
		}
		if !bytes.Equal(cold8[i], warm8[i]) {
			t.Errorf("spec %d: cache hit differs from the cold run:\n%s\n%s",
				i, cold8[i], warm8[i])
		}
	}

	st := c8.Stats()
	if st.Misses != int64(len(specs)) || st.Hits < int64(len(specs)) {
		t.Errorf("cache stats = %+v, want %d misses then >= %d hits", st, len(specs), len(specs))
	}
}

// TestEvalSpecReportsHitFlag pins the hit flag and the decode round trip.
func TestEvalSpecReportsHitFlag(t *testing.T) {
	c := cache.New(cache.Options{})
	s := spec.Spec{Workload: spec.WorkloadAllreduce, Ranks: 8, Bytes: 4096}
	body1, hit1, err := EvalSpec(s, EvalOptions{cache: c})
	if err != nil || hit1 {
		t.Fatalf("first eval: hit=%v err=%v, want miss", hit1, err)
	}
	body2, hit2, err := EvalSpec(s, EvalOptions{cache: c})
	if err != nil || !hit2 {
		t.Fatalf("second eval: hit=%v err=%v, want hit", hit2, err)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("hit body differs from cold body")
	}
	res, err := DecodeResult(body1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash != s.Hash() || res.Unit != "ns" || res.Value <= 0 {
		t.Errorf("decoded result %+v inconsistent with spec %s", res, s)
	}
	if res.Critical.EndNs <= 0 || res.Comm == nil || res.Comm.Ranks != 8 {
		t.Errorf("result lacks critical path / comm matrix: %+v", res)
	}
	sum := res.Critical.ComputeNs + res.Critical.IntraNs + res.Critical.InterNs + res.Critical.BlockedNs
	if sum != res.Critical.EndNs {
		t.Errorf("critical-path attribution %d != end %d", sum, res.Critical.EndNs)
	}
}

// TestEvalCommMatrixCap: above maxCommRanks the dense matrices are omitted
// but the totals stay.
func TestEvalCommMatrixCap(t *testing.T) {
	s := spec.Spec{Workload: spec.WorkloadAllreduce, Ranks: 256, Bytes: 8, Iters: 1}
	body, _, err := EvalSpec(s, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodeResult(body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm == nil || res.Comm.Ranks != 256 {
		t.Fatalf("comm summary missing: %+v", res.Comm)
	}
	if res.Comm.Bytes != nil || res.Comm.Count != nil {
		t.Error("dense matrices should be omitted above maxCommRanks")
	}
	if res.Comm.TotalBytes <= 0 || res.Comm.Transfers <= 0 {
		t.Errorf("traffic totals should survive the cap: %+v", res.Comm)
	}
}

// TestCommSummaryLargeRanks: a miss on a log with more ranks than
// maxCommRanks builds no dense matrix to drop — 4096 ranks allocate well
// under 1 MiB, where the two matrices alone would be 256 MiB — and the
// totals it keeps are BuildCommMatrix's, on either side of the cap.
func TestCommSummaryLargeRanks(t *testing.T) {
	for _, n := range []int{maxCommRanks, maxCommRanks + 1, 4096} {
		l := trace.New()
		labels := make([]string, n)
		for r := range n {
			labels[r] = fmt.Sprintf("gpu%d->gpu%d", r, (r+1)%n)
		}
		var bytes, msgs int64
		for i := range 2 * n {
			r := i % n
			l.Add(trace.Span{Kind: trace.KindTransfer, Label: labels[r], Track: "inter", Rank: r, Src: r, Dst: (r + 1) % n,
				Start: sim.Time(i), End: sim.Time(i + 10), Bytes: int64(8 * (i + 1))})
			bytes, msgs = bytes+int64(8*(i+1)), msgs+1
		}
		spans := l.Sorted()
		var cs *commMatrix
		got, _ := allocated(func() { cs = commSummary(spans) })
		if cs.Ranks != n || cs.TotalBytes != bytes || cs.Transfers != msgs {
			t.Errorf("%d ranks: summary %d ranks, %d bytes, %d transfers; want %d, %d, %d",
				n, cs.Ranks, cs.TotalBytes, cs.Transfers, n, bytes, msgs)
		}
		if dense := cs.Bytes != nil; dense != (n <= maxCommRanks) {
			t.Errorf("%d ranks: dense matrices present = %v", n, dense)
		}
		if n <= maxCommRanks+1 {
			m := trace.BuildCommMatrix(spans)
			var mb, mc int64
			for src := range m.Bytes {
				for dst := range m.Bytes[src] {
					mb, mc = mb+m.Bytes[src][dst], mc+m.Count[src][dst]
				}
			}
			if m.N != cs.Ranks || mb != cs.TotalBytes || mc != cs.Transfers {
				t.Errorf("%d ranks: BuildCommMatrix has %d ranks, %d bytes, %d transfers; summary %+v", n, m.N, mb, mc, *cs)
			}
		}
		if n == 4096 && !raceEnabled && got > 1<<20 {
			t.Errorf("commSummary at %d ranks allocated %s, budget 1MiB", n, HumanBytes(int64(got)))
		}
	}
}

// FuzzDecodeResult holds the encoded Result, the body a miss caches and a
// hit returns verbatim, to a round trip: whatever DecodeResult accepts
// encodes to bytes that decode to the same Result (an empty matrix and an
// absent one are the same answer: Encode omits both), and one round trip
// reaches Encode's fixed point.
func FuzzDecodeResult(f *testing.F) {
	for _, s := range []spec.Spec{
		{Workload: spec.WorkloadNetLatency, Bytes: 8},
		{Workload: spec.WorkloadNetBandwidth, Backend: "GPUSHMEM", API: "Device", Inter: true, Bytes: 4096},
		{Workload: spec.WorkloadAllreduce, Ranks: 4, Bytes: 64, Iters: 1},
	} {
		body, _, err := EvalSpec(s, EvalOptions{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, b := range []string{`{}`, `null`, `{"value":-0,"comm_matrix":{"bytes":[],"count":[[]]}}`,
		`{"spec":{"workload":"x","bytes":1e3},"Value":1e308,"critical_path":{"spans":-1}}`} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeResult(b)
		if err != nil {
			return
		}
		enc, err := r.Encode()
		if err != nil {
			t.Fatalf("decoded %+v does not encode: %v", r, err)
		}
		back, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("encoding %q does not decode: %v", enc, err)
		}
		if c := r.Comm; c != nil {
			if len(c.Bytes) == 0 {
				c.Bytes = nil
			}
			if len(c.Count) == 0 {
				c.Count = nil
			}
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("round trip changed the result:\n%+v\n%+v", r, back)
		}
		if again, err := back.Encode(); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("Encode is not a fixed point after one round trip:\n%s\n%s (%v)", enc, again, err)
		}
	})
}
