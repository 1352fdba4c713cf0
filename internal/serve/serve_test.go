package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/bench"
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

// gate holds every batch at the eval seam: each batch's specs arrive on
// batches as the batch reaches eval, and it runs only when the test sends on
// release. No test depends on a wall-clock window. At cleanup the gate opens
// and the service closes, so a failed test does not leave a slot blocked.
type gate struct {
	batches chan []spec.Spec
	release chan struct{}
}

func gated(t *testing.T, sv *Service) *gate {
	g := &gate{batches: make(chan []spec.Spec, 16), release: make(chan struct{})}
	sv.eval = func(specs []spec.Spec, c *cache.Cache) []bench.Evaluation {
		g.batches <- specs
		<-g.release
		return bench.EvalSpecs(specs, c)
	}
	t.Cleanup(func() {
		close(g.release)
		sv.Close()
	})
	return g
}

// query runs one Query on its own goroutine; the result arrives on the
// returned channel.
func query(sv *Service, s spec.Spec) <-chan result {
	out := make(chan result, 1)
	go func() {
		body, src, err := sv.Query(s)
		out <- result{body, src, err}
	}()
	return out
}

type result struct {
	body []byte
	src  string
	err  error
}

// awaitPending yields until the service holds n running or queued calls.
func awaitPending(sv *Service, n int) {
	for sv.Stats().Pending != n {
		runtime.Gosched()
	}
}

// TestLoneMissRunsAtOnce: with a slot free, a miss is handed to eval as a
// batch of one without passing through the queue; nothing waits on a timer.
func TestLoneMissRunsAtOnce(t *testing.T) {
	sv := New(Options{})
	g := gated(t, sv)
	res := query(sv, latencySpec(4096))
	if batch := <-g.batches; len(batch) != 1 || batch[0] != latencySpec(4096) {
		t.Fatalf("eval got %v, want the lone miss", batch)
	}
	sv.mu.Lock()
	queued, running := len(sv.queue), sv.running
	sv.mu.Unlock()
	if queued != 0 || running != 1 {
		t.Errorf("while the miss runs: %d queued, %d slots busy; want 0 and 1", queued, running)
	}
	g.release <- struct{}{}
	if r := <-res; r.err != nil || r.src != "miss" || len(r.body) == 0 {
		t.Fatalf("lone miss = %q, %d bytes, %v; want a miss with a body", r.src, len(r.body), r.err)
	}
}

// TestCoalescingSingleSimulation: identical queries arriving while the first
// one's simulation runs join it: one simulation, identical bodies for every
// caller.
func TestCoalescingSingleSimulation(t *testing.T) {
	sv := New(Options{})
	g := gated(t, sv)
	const clients = 8
	results := []<-chan result{query(sv, latencySpec(8192))}
	<-g.batches
	for i := 1; i < clients; i++ {
		results = append(results, query(sv, latencySpec(8192)))
	}
	for sv.Stats().Coalesced != clients-1 {
		runtime.Gosched()
	}
	g.release <- struct{}{}
	var first []byte
	for i, res := range results {
		r := <-res
		if r.err != nil {
			t.Fatalf("client %d: %v", i, r.err)
		}
		if i == 0 {
			first = r.body
		} else if r.src != "coalesced" || !bytes.Equal(r.body, first) {
			t.Fatalf("client %d: source %q, same body %v; want a coalesced copy of the first", i, r.src, bytes.Equal(r.body, first))
		}
	}
	if st := sv.Stats(); st.Batches != 1 || st.BatchedSpecs != 1 {
		t.Errorf("stats = %+v, want one batch of one spec (coalesced clients must not re-simulate)", st)
	}
}

// TestBatchingDistinctSpecs: with the only slot busy, four distinct misses
// queue and run as the next single batch (one EvalSpecs sweep).
func TestBatchingDistinctSpecs(t *testing.T) {
	sv := New(Options{MaxInflight: 1})
	g := gated(t, sv)
	results := []<-chan result{query(sv, latencySpec(512))}
	<-g.batches
	sizes := []int64{1024, 2048, 4096, 8192}
	for _, b := range sizes {
		results = append(results, query(sv, latencySpec(b)))
	}
	awaitPending(sv, 1+len(sizes))
	g.release <- struct{}{}
	if batch := <-g.batches; len(batch) != len(sizes) {
		t.Fatalf("next batch has %d specs, want the %d queued", len(batch), len(sizes))
	}
	g.release <- struct{}{}
	for i, res := range results {
		if r := <-res; r.err != nil || r.src != "miss" {
			t.Errorf("query %d: source %q, err %v; want a miss", i, r.src, r.err)
		}
	}
	if st := sv.Stats(); st.Batches != 2 || st.BatchedSpecs != 5 {
		t.Errorf("stats = %+v, want a batch of 1 then a batch of 4", st)
	}
}

// TestOverloadSheds: with the only slot busy and the queue at its cap, a
// further miss is rejected with errOverloaded.
func TestOverloadSheds(t *testing.T) {
	sv := New(Options{MaxInflight: 1, QueueCap: 1})
	g := gated(t, sv)
	running := query(sv, latencySpec(1024))
	<-g.batches
	queued := query(sv, latencySpec(2048))
	awaitPending(sv, 2)
	if _, _, err := sv.Query(latencySpec(4096)); err != errOverloaded {
		t.Fatalf("over-cap query error = %v, want errOverloaded", err)
	}
	if st := sv.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
	g.release <- struct{}{}
	<-g.batches
	g.release <- struct{}{}
	for _, res := range []<-chan result{running, queued} {
		if r := <-res; r.err != nil {
			t.Errorf("admitted query failed: %v", r.err)
		}
	}
}

// TestCloseDrains: Close stops intake at once, still runs what is queued, and
// returns only when no slot is busy.
func TestCloseDrains(t *testing.T) {
	sv := New(Options{MaxInflight: 1})
	g := gated(t, sv)
	running := query(sv, latencySpec(4096))
	<-g.batches
	queued := query(sv, latencySpec(8192))
	awaitPending(sv, 2)
	closed := make(chan struct{})
	go func() {
		sv.Close()
		close(closed)
	}()
	for {
		sv.mu.Lock()
		shut := sv.closed
		sv.mu.Unlock()
		if shut {
			break
		}
		runtime.Gosched()
	}
	if _, _, err := sv.Query(latencySpec(16384)); err != errClosed {
		t.Fatalf("query after Close began: error = %v, want errClosed", err)
	}
	g.release <- struct{}{}
	if batch := <-g.batches; len(batch) != 1 || batch[0] != latencySpec(8192) {
		t.Fatalf("after Close began, eval got %v; want the queued call", batch)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a slot was busy")
	default:
	}
	g.release <- struct{}{}
	<-closed
	for _, res := range []<-chan result{running, queued} {
		if r := <-res; r.err != nil || len(r.body) == 0 {
			t.Fatalf("admitted query should resolve on Close: %d bytes, err %v", len(r.body), r.err)
		}
	}
}

// TestPanickingEvalIs500: a panic in a batch's evaluation fails that batch's
// query with a 500 naming it, and the service goes on answering.
func TestPanickingEvalIs500(t *testing.T) {
	sv := New(Options{})
	defer sv.Close()
	h := NewHandler(sv, nil)
	post := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"workload":"net-latency","bytes":4096}`)))
		return w
	}
	sv.eval = func([]spec.Spec, *cache.Cache) []bench.Evaluation { panic("injected fault") }
	if w := post(); w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "injected fault") {
		t.Fatalf("panicking eval: %d %q, want a 500 naming the panic", w.Code, w.Body.String())
	}
	sv.eval = bench.EvalSpecs
	if w := post(); w.Code != http.StatusOK || w.Header().Get("X-Uniconn-Cache") != "miss" {
		t.Fatalf("query after the panic: %d %q, want a 200 miss", w.Code, w.Body.String())
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

	// An intra-node generated fault plan used to be drawn over two nodes and
	// panic the batch goroutine, ending the process. It is answered, and so
	// is the next query.
	for _, q := range []string{
		`{"workload":"net-latency","bytes":8,"fault_mode":"generate","severity":0.5}`,
		`{"workload":"net-latency","bytes":16}`,
	} {
		if resp, msg := post(q); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status = %d (%s), want 200", q, resp.StatusCode, msg)
		}
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
	// Unbounded work is refused at admission, before any rank is spawned.
	if resp, msg := post(`{"workload":"allreduce","ranks":100000000,"bytes":8}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("10^8-rank allreduce status = %d (%s), want 400", resp.StatusCode, msg)
	}
	// A network no cluster can build, or one too small for the cell, is
	// refused at admission; it used to panic a batch goroutine and take the
	// process down. The same service then answers a valid query.
	for _, topo := range []string{"fattree:3", "fattree:2", "dragonfly:1,1,0"} {
		if resp, msg := post(`{"workload":"allreduce","ranks":16,"bytes":64,"topology":"` + topo + `"}`); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("topology %s status = %d (%s), want 400", topo, resp.StatusCode, msg)
		}
	}
	if resp, msg := post(`{"workload":"allreduce","ranks":16,"bytes":64,"topology":"fattree:4"}`); resp.StatusCode != http.StatusOK {
		t.Errorf("valid query after the refused topologies: status = %d (%s), want 200", resp.StatusCode, msg)
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
	if got := getResp.Header.Get("Allow"); got != http.MethodPost {
		t.Errorf("GET /query Allow = %q, want POST (RFC 9110 §15.5.6)", got)
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

// memResponse is an in-memory http.ResponseWriter the alloc test reuses.
type memResponse struct {
	hdr  http.Header
	code int
	body []byte
}

func (w *memResponse) Header() http.Header  { return w.hdr }
func (w *memResponse) WriteHeader(code int) { w.code = code }
func (w *memResponse) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

// memBody is a resettable request body.
type memBody struct{ bytes.Reader }

func (*memBody) Close() error { return nil }

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestWarmHitAllocs bounds the objects a cache hit allocates through the
// handler, driven with one reused in-memory request and response (no
// network, no per-query harness allocation): the body read into a pooled
// buffer, a decode that returns the enum values as constants, one validate
// that builds no machine model, one hash, one cache get and the three header
// values in one array. Four objects today; the budget leaves two spare.
func TestWarmHitAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates shadow state")
	}
	const budget = 6
	sv := New(Options{})
	defer sv.Close()
	h := NewHandler(sv, nil)
	doc := []byte(`{"workload":"net-latency","backend":"GPUSHMEM","api":"Device","bytes":4096}`)
	var body memBody
	resp := memResponse{hdr: http.Header{}}
	req := http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/query"}, Header: http.Header{},
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Host: "test", Body: &body}
	post := func() {
		body.Reset(doc)
		clear(resp.hdr)
		resp.code, resp.body = http.StatusOK, resp.body[:0]
		h.ServeHTTP(&resp, &req)
	}
	post() // the cold miss fills the cache
	if resp.code != http.StatusOK || resp.hdr.Get("X-Uniconn-Cache") != "miss" {
		t.Fatalf("cold query: %d %q: %s", resp.code, resp.hdr.Get("X-Uniconn-Cache"), resp.body)
	}
	allocs := testing.AllocsPerRun(200, post)
	if resp.code != http.StatusOK || resp.hdr.Get("X-Uniconn-Cache") != "hit" {
		t.Fatalf("warm query: %d %q: %s", resp.code, resp.hdr.Get("X-Uniconn-Cache"), resp.body)
	}
	t.Logf("%.1f allocations per warm hit (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("a warm hit allocates %.1f objects, budget %d", allocs, budget)
	}
}
