package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/spec"
)

func latencySpec(bytes int64) spec.Spec {
	return spec.Spec{Workload: spec.WorkloadNetLatency, Bytes: bytes}
}

// TestQueryHitByteIdentical: the second query of a spec is a cache hit whose
// body equals the cold body byte for byte.
func TestQueryHitByteIdentical(t *testing.T) {
	sv := New(Options{})
	defer sv.Close()
	cold, src, err := sv.Query(latencySpec(4096))
	if err != nil {
		t.Fatal(err)
	}
	if src != "miss" {
		t.Fatalf("first query source = %q, want miss", src)
	}
	warm, src, err := sv.Query(latencySpec(4096))
	if err != nil {
		t.Fatal(err)
	}
	if src != "hit" {
		t.Fatalf("second query source = %q, want hit", src)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("hit body differs from cold body:\n%s\n%s", cold, warm)
	}
}

// TestCoalescingSingleSimulation: concurrent identical queries produce one
// simulation (one miss in the cache) and identical bodies for every caller.
func TestCoalescingSingleSimulation(t *testing.T) {
	c := cache.New(cache.Options{})
	// A wide batch window so all queries land in one pending call.
	sv := New(Options{Cache: c, BatchWindow: 50 * time.Millisecond})
	defer sv.Close()

	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _, err := sv.Query(latencySpec(8192))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d got a different body", i)
		}
	}
	// Every client probes the cache (a counted miss each), but only ONE
	// simulation may run: one batch containing one spec.
	st := sv.Stats()
	if st.Batches != 1 || st.BatchedSpecs != 1 {
		t.Errorf("stats = %+v, want one batch of one spec (coalesced clients must not re-simulate)", st)
	}
	if st.Coalesced == 0 {
		t.Errorf("stats report no coalesced queries: %+v", st)
	}
}

// TestBatchingDistinctSpecs: distinct specs inside one window execute as one
// batch (one EvalSpecs sweep), not one sweep each.
func TestBatchingDistinctSpecs(t *testing.T) {
	sv := New(Options{BatchWindow: 50 * time.Millisecond, MaxBatch: 16})
	defer sv.Close()
	var wg sync.WaitGroup
	for _, b := range []int64{1024, 2048, 4096, 8192} {
		wg.Add(1)
		go func(b int64) {
			defer wg.Done()
			if _, _, err := sv.Query(latencySpec(b)); err != nil {
				t.Errorf("bytes=%d: %v", b, err)
			}
		}(b)
	}
	wg.Wait()
	st := sv.Stats()
	if st.Batches != 1 || st.BatchedSpecs != 4 {
		t.Errorf("stats = %+v, want one batch of 4 specs", st)
	}
}

// TestFullBatchFlushesEarly: MaxBatch queued specs execute without waiting
// for the window.
func TestFullBatchFlushesEarly(t *testing.T) {
	sv := New(Options{BatchWindow: time.Hour, MaxBatch: 2})
	defer sv.Close()
	var wg sync.WaitGroup
	start := time.Now()
	for _, b := range []int64{1024, 2048} {
		wg.Add(1)
		go func(b int64) {
			defer wg.Done()
			if _, _, err := sv.Query(latencySpec(b)); err != nil {
				t.Errorf("bytes=%d: %v", b, err)
			}
		}(b)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("full batch waited %v; the hour-long window should not apply", elapsed)
	}
}

// TestOverloadSheds: a tiny queue cap rejects the excess with errOverloaded
// while a batch slot is occupied.
func TestOverloadSheds(t *testing.T) {
	sv := New(Options{BatchWindow: time.Hour, MaxBatch: 64, QueueCap: 1})
	// Occupy the queue with one pending call (the window never fires
	// on its own within the test).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sv.Query(latencySpec(1024)) //nolint:errcheck
	}()
	// Wait until the first query is queued.
	for i := 0; ; i++ {
		if st := sv.Stats(); st.Pending == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("first query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := sv.Query(latencySpec(2048)); err != errOverloaded {
		t.Fatalf("over-cap query error = %v, want errOverloaded", err)
	}
	if st := sv.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
	sv.Close() // flushes the queued call
	wg.Wait()
}

// TestCloseDrains: Close executes what is queued, then sheds new queries.
func TestCloseDrains(t *testing.T) {
	sv := New(Options{BatchWindow: time.Hour})
	var body []byte
	var err error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, _, err = sv.Query(latencySpec(4096))
	}()
	for i := 0; ; i++ {
		if st := sv.Stats(); st.Pending == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	sv.Close()
	wg.Wait()
	if err != nil || len(body) == 0 {
		t.Fatalf("queued query should resolve on Close: body=%d bytes, err=%v", len(body), err)
	}
	if _, _, err := sv.Query(latencySpec(8192)); err != errClosed {
		t.Fatalf("post-Close query error = %v, want errClosed", err)
	}
}

// TestHTTPQueryEndpoint drives the full HTTP surface: miss then hit with
// byte-identical bodies and the cache header, 400s for bad specs and
// trailing bytes, 413 for an oversized body, 405 for GET, and a working
// /stats.
func TestHTTPQueryEndpoint(t *testing.T) {
	sv := New(Options{})
	defer sv.Close()
	srv := httptest.NewServer(NewHandler(sv, nil))
	defer srv.Close()

	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp, buf.String()
	}

	resp1, body1 := post(`{"workload":"net-latency","bytes":4096}`)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold query status = %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Uniconn-Cache"); got != "miss" {
		t.Errorf("cold X-Uniconn-Cache = %q, want miss", got)
	}
	if resp1.Header.Get("X-Uniconn-Spec-Hash") == "" {
		t.Error("missing X-Uniconn-Spec-Hash header")
	}

	resp2, body2 := post(`{"workload":"net-latency","bytes":4096}`)
	if got := resp2.Header.Get("X-Uniconn-Cache"); got != "hit" {
		t.Errorf("warm X-Uniconn-Cache = %q, want hit", got)
	}
	if body1 != body2 {
		t.Error("hit body differs from cold body over HTTP")
	}

	if resp, msg := post(`{"workload":"nope","bytes":8}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown workload status = %d (%s), want 400", resp.StatusCode, msg)
	}
	// Unknown fields are refused, the removed engine selector "shards" like
	// any other: not silently run on the one engine there is.
	for _, field := range []string{`"typo":1`, `"shards":4`} {
		if resp, msg := post(`{"workload":"net-latency","bytes":4096,` + field + `}`); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("unknown field %s status = %d (%s), want 400", field, resp.StatusCode, msg)
		}
	}
	for _, trailing := range []string{`{"workload":"nope"}`, `1`, `]`} {
		if resp, msg := post(`{"workload":"net-latency","bytes":4096} ` + trailing); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("trailing %q status = %d (%s), want 400", trailing, resp.StatusCode, msg)
		}
	}
	if resp, _ := post(`{"workload":"net-latency","bytes":4096}` + "\n"); resp.Header.Get("X-Uniconn-Cache") != "hit" {
		t.Errorf("trailing newline status = %d, want a 200 hit", resp.StatusCode)
	}
	for _, big := range []string{
		`{"workload":"` + strings.Repeat("x", maxQueryBytes) + `"}`,
		`{"workload":"net-latency","bytes":4096}` + strings.Repeat(" ", maxQueryBytes),
	} {
		if resp, msg := post(big); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%d-byte body status = %d (%s), want 413", len(big), resp.StatusCode, msg)
		}
	}

	getResp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d, want 405", getResp.StatusCode)
	}

	stResp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(stResp.Body) //nolint:errcheck
	stResp.Body.Close()
	if stResp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), `"queries"`) {
		t.Errorf("/stats = %d %s", stResp.StatusCode, buf.String())
	}
}
