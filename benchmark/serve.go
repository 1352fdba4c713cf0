package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/serve"
	"repro/internal/spec"
)

// The serve-* workloads drive one in-process serve.Service through
// serve.NewHandler(...).ServeHTTP with an in-memory request and response:
// a closed-loop client, because a what-if caller waits for its reply before
// asking again. Loopback TCP was tried when the workloads were sized and
// varied 20 % run to run against 4 % at the handler boundary, so the
// end-to-end numbers are taken at the handler and loopback stays one
// per-layer probe.

// p2pGrid is the point-to-point spec grid: workload x (backend, API) x
// native x inter — 32 cells, every one valid on Perlmutter.
func p2pGrid() []spec.Spec {
	var grid []spec.Spec
	for _, wl := range []string{spec.WorkloadNetLatency, spec.WorkloadNetBandwidth} {
		for _, ba := range [][2]string{{"MPI", "Host"}, {"GPUCCL", "Host"}, {"GPUSHMEM", "Host"}, {"GPUSHMEM", "Device"}} {
			for _, native := range []bool{false, true} {
				for _, inter := range []bool{false, true} {
					grid = append(grid, spec.Spec{Workload: wl, Backend: ba[0], API: ba[1], Native: native, Inter: inter})
				}
			}
		}
	}
	return grid
}

// memResponse is the in-memory http.ResponseWriter.
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

// serveClient is the closed-loop client's reusable request and response, so
// the harness allocates nothing per query.
type serveClient struct {
	req  http.Request
	body memBody
	resp memResponse
}

func newServeClient() *serveClient {
	c := &serveClient{resp: memResponse{hdr: http.Header{}}}
	c.req = http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/query"}, Header: http.Header{},
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Host: "bench"}
	return c
}

// post delivers one request body to the handler and returns the response,
// which is valid until the client's next post.
func (c *serveClient) post(h http.Handler, body []byte) *memResponse {
	c.body.Reset(body)
	c.req.Body = &c.body
	clear(c.resp.hdr)
	c.resp.code, c.resp.body = http.StatusOK, c.resp.body[:0]
	h.ServeHTTP(&c.resp, &c.req)
	return &c.resp
}

// serveInst is the state both serve workloads share.
type serveInst struct {
	sv      *serve.Service
	handler http.Handler
	client  *serveClient
	reqs    [][]byte // request JSON per spec
}

func newServeInst(c *cache.Cache, specs []spec.Spec) (*serveInst, error) {
	s := &serveInst{sv: serve.New(serve.Options{Cache: c}), client: newServeClient()}
	s.handler = serve.NewHandler(s.sv, nil)
	for _, sp := range specs {
		b, err := json.Marshal(sp)
		if err != nil {
			return nil, err
		}
		s.reqs = append(s.reqs, b)
	}
	return s, nil
}

func (s *serveInst) close() { s.sv.Close() }

// query posts spec k and checks status and cache source.
func (s *serveInst) query(k int, wantSource string, t *opTrace) (*memResponse, error) {
	h := t.begin("serve.ServeHTTP")
	resp := s.client.post(s.handler, s.reqs[k])
	t.end(h)
	if resp.code != http.StatusOK {
		return nil, fmt.Errorf("spec %d: status %d: %s", k, resp.code, bytes.TrimSpace(resp.body))
	}
	if got := resp.hdr.Get("X-Uniconn-Cache"); got != wantSource {
		return nil, fmt.Errorf("spec %d: served as %q, want %q", k, got, wantSource)
	}
	return resp, nil
}

func (s *serveInst) stats() serve.Stats { return s.sv.Stats() }

// ---- serve-warm -----------------------------------------------------------

type serveWarmInst struct {
	*serveInst
	order    []uint8    // operation -> spec
	cold     [][]byte   // the body the cold fill returned per spec
	coldLeaf [][32]byte // its SHA-256
}

func serveWarmSetup(in inputs) (instance, error) {
	var specs []spec.Spec
	for _, g := range p2pGrid() {
		for _, size := range []int64{256, 16 << 10} {
			g.Bytes = size
			specs = append(specs, g)
		}
	}
	if in.smoke {
		specs = specs[:8]
	}
	base, err := newServeInst(nil, specs)
	if err != nil {
		return nil, err
	}
	w := &serveWarmInst{serveInst: base, cold: make([][]byte, len(specs)), coldLeaf: make([][32]byte, len(specs))}

	// Cold fill: every spec once.
	for k := range specs {
		resp, err := w.query(k, "miss", nil)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("cold fill: %w", err)
		}
		w.cold[k] = append([]byte(nil), resp.body...)
		w.coldLeaf[k] = sha256.Sum256(resp.body)
	}

	w.order = append(zipfOrder(in.seed, "serve-warm/timed", len(specs), in.n),
		zipfOrder(in.seed, "serve-warm/warm", len(specs), in.warm)...)
	return w, nil
}

// zipfOrder returns n draws over k specs with Zipf(1) popularity. Which spec
// holds which popularity rank is fixed by the suite, and each spec appears
// round(n * p) times exactly (largest remainders first); the seed only
// shuffles the order. Every seed therefore sends the same multiset of
// queries, and a seed that happened to make a large-bodied spec the hot one
// cannot move the throughput.
func zipfOrder(seed uint64, stream string, k, n int) []uint8 {
	rank := newRNG(0, "serve-warm/popularity").perm(k)
	var norm float64
	for i := 0; i < k; i++ {
		norm += 1 / float64(i+1)
	}
	type share struct {
		spec  int
		count int
		rem   float64
	}
	shares := make([]share, k)
	left := n
	for i := range shares {
		exact := float64(n) / float64(i+1) / norm
		shares[i] = share{spec: rank[i], count: int(exact), rem: exact - float64(int(exact))}
		left -= shares[i].count
	}
	sort.SliceStable(shares, func(i, j int) bool { return shares[i].rem > shares[j].rem })
	order := make([]uint8, 0, n)
	for i, sh := range shares {
		if i < left {
			sh.count++
		}
		for c := 0; c < sh.count; c++ {
			order = append(order, uint8(sh.spec))
		}
	}
	r := newRNG(seed, stream)
	for i := len(order) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

func (w *serveWarmInst) op(i int, t *opTrace) ([32]byte, error) {
	k := int(w.order[i])
	resp, err := w.query(k, "hit", t)
	if err != nil {
		return [32]byte{}, err
	}
	// A hit must be the cold body, byte for byte. Comparing is enough to
	// know the body's hash, so 1.2 M bodies are not hashed inside the loop.
	h := t.begin("verify")
	same := bytes.Equal(resp.body, w.cold[k])
	t.end(h)
	if !same {
		return [32]byte{}, fmt.Errorf("spec %d: hit body differs from cold body", k)
	}
	return w.coldLeaf[k], nil
}

// Every warm query is one kind: a hit costs the same whichever spec it asks
// for, to within the length of the body.
func (w *serveWarmInst) kind(int) int { return 0 }

// ---- serve-churn ----------------------------------------------------------

type serveChurnInst struct {
	*serveInst
	specs []spec.Spec
	cells []int // operation -> grid cell
}

// churnSpecs generates n timed and warm warm-up specs, none ever repeating.
// Timed operation k takes a grid cell — the 32-cell grid cycled in
// seed-shuffled order, so every cycle holds the same mix — at Bytes =
// base + 8k, where the seed draws each cell's base in [8 B, 3 KiB]. Sizes
// stay below the 8 KiB step in the p2p workloads' default iteration counts
// (up to 600 operations), so every seed holds the same amount of simulation.
// Warm-up specs are the same whatever the seed: every fourth grid cell, at
// sizes just past the largest a timed spec can have.
func churnSpecs(seed uint64, n, warm int) (specs []spec.Spec, cells []int) {
	grid := p2pGrid()
	r := newRNG(seed, "serve-churn/specs")
	order := r.perm(len(grid))
	base := r.stratified(len(grid), 8, 3<<10)
	specs, cells = make([]spec.Spec, n+warm), make([]int, n+warm)
	for k := range specs {
		cell, bytes := order[k%len(grid)], int64(0)
		if k < n {
			bytes = int64(base[cell])&^7 + 8*int64(k)
		} else {
			cell, bytes = (k-n)*4%len(grid), 3<<10+8*int64(k)
		}
		specs[k], cells[k] = grid[cell], cell
		specs[k].Bytes = bytes + 8
	}
	return specs, cells
}

func serveChurnSetup(in inputs) (instance, error) {
	specs, cells := churnSpecs(in.seed, in.n, in.warm)
	base, err := newServeInst(cache.New(cache.Options{MaxEntries: 128}), specs)
	if err != nil {
		return nil, err
	}
	return &serveChurnInst{serveInst: base, specs: specs, cells: cells}, nil
}

func (w *serveChurnInst) kind(i int) int { return w.cells[i] }

func (w *serveChurnInst) op(i int, t *opTrace) ([32]byte, error) {
	resp, err := w.query(i, "miss", t)
	if err != nil {
		return [32]byte{}, err
	}
	h := t.begin("verify")
	defer t.end(h)
	res, err := bench.DecodeResult(resp.body)
	if err != nil {
		return [32]byte{}, fmt.Errorf("spec %d: %w", i, err)
	}
	if want := w.specs[i].Hash(); res.Hash != want || resp.hdr.Get("X-Uniconn-Spec-Hash") != want {
		return [32]byte{}, fmt.Errorf("spec %d: answered for hash %s, want %s", i, res.Hash, want)
	}
	return sha256.Sum256(resp.body), nil
}
