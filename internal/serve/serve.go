// Package serve implements the what-if query service behind uniconn serve:
// an HTTP/JSON API answering "this workload, this machine, this backend →
// predicted time, critical path, comm matrix" from the deterministic
// simulator, made cheap by two layers of reuse.
//
// First, every answer is served from the content-addressed result cache
// (internal/cache) when possible: the spec's hash (internal/spec) is the
// cache key, and a hit returns the stored bytes verbatim — byte-identical
// to a fresh simulation, at O(1) cost.
//
// Second, concurrent misses coalesce: identical specs join one pending call
// (one simulation, many waiters). Each distinct miss takes one of GOMAXPROCS
// slots, the service's only width setting, and simulates on its own request
// goroutine through bench.Eval; misses that find every slot busy wait, up to
// a cap that sheds load (errOverloaded → 503). A panic in an evaluation
// fails only its own call and the queries coalesced onto it.
//
// Determinism note: coalescing changes *how often* a cell is simulated,
// never *what* it returns — cell results are a pure function of the spec,
// and the cache stores encoded bytes. The service can therefore never serve
// two different answers for one spec.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/spec"
)

// DefaultQueueCap is the QueueCap a zero Options value selects.
const DefaultQueueCap = 1024

// errOverloaded rejects a miss beyond QueueCap waiting ones; mapped to 503.
var errOverloaded = errors.New("serve: pending queue full")

// errClosed reports a query arriving after Close began; mapped to 503.
var errClosed = errors.New("serve: shutting down")

// Options configures a Service.
type Options struct {
	// Cache is the result cache (a private in-memory cache when nil).
	Cache *cache.Cache
	// Registry, when non-nil, hosts the service's serve.* and cache.*
	// counters — pass the telemetry tracker's registry so they surface on
	// /metrics. A private registry is used when nil (Stats still works).
	Registry *metrics.Registry
	// QueueCap caps the misses waiting for a slot; beyond it queries are
	// shed with errOverloaded (0 = DefaultQueueCap).
	QueueCap int
}

// Service coalesces spec queries over the result cache.
type Service struct {
	opts  Options
	eval  func(spec.Spec, string, *cache.Cache) ([]byte, bool, error) // bench.Eval
	slots chan struct{}                                               // a token per evaluating miss

	// Only a pending call holds a slot, and only under mu is one returned,
	// so under mu len(pending) - len(slots) misses wait for a slot.
	mu      sync.Mutex
	pending map[string]*call // spec hash → evaluating or waiting call
	closed  bool
	wg      sync.WaitGroup // one per pending call

	mQueries, mFast, mCoalesced *metrics.Counter
	mBatches, mBatched          *metrics.Counter
	mRejected, mErrors          *metrics.Counter
}

// call is one pending simulation: the first requester of a spec creates and
// evaluates it, identical requests join it.
type call struct {
	done chan struct{} // closed once body/hit/err are set
	body []byte
	hit  bool
	err  error
}

// New returns a service over the options, GOMAXPROCS slots wide.
func New(opts Options) *Service {
	if opts.Cache == nil {
		opts.Cache = cache.New(cache.Options{})
	}
	if opts.Registry == nil {
		opts.Registry = metrics.New()
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = DefaultQueueCap
	}
	sv := &Service{
		opts:    opts,
		eval:    bench.Eval,
		slots:   make(chan struct{}, runtime.GOMAXPROCS(0)),
		pending: make(map[string]*call),
	}
	opts.Cache.SetMetrics(opts.Registry)
	r := opts.Registry
	sv.mQueries = r.Counter("serve.queries")
	sv.mFast = r.Counter("serve.fast_hits")
	sv.mCoalesced = r.Counter("serve.coalesced")
	sv.mBatches = r.Counter("serve.batches")
	sv.mBatched = r.Counter("serve.batched_specs")
	sv.mRejected = r.Counter("serve.rejected")
	sv.mErrors = r.Counter("serve.errors")
	return sv
}

// Query answers one spec, refusing one admit refuses. The source says how:
// "hit" (from the cache), "miss" (this call simulated it) or "coalesced"
// (joined another query's pending call). Blocks until the answer is ready;
// under overload or shutdown it fails fast with errOverloaded / errClosed.
func (sv *Service) Query(s spec.Spec) (body []byte, source string, err error) {
	if err := admit(s); err != nil {
		return nil, "", err
	}
	return sv.query(s, s.Hash())
}

// admit refuses, before the cache is consulted, a spec that is invalid or
// that names an application cell. One application cell can hold a slot for
// long and a lot of memory (a 64-GPU Jacobi cell of 10 000 iterations takes
// 35 s and 2.75 GiB), and the admission bounds cannot tell such a cell from
// a small one until they estimate its cost (ROADMAP 5d).
func admit(s spec.Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Workload == spec.WorkloadJacobi || s.Workload == spec.WorkloadCG {
		return fmt.Errorf("serve: %s cells are not served until admission estimates a cell's cost (ROADMAP 5d)", s.Workload)
	}
	return nil
}

// query is Query for a validated spec whose hash h the caller already holds.
func (sv *Service) query(s spec.Spec, h string) (body []byte, source string, err error) {
	sv.mQueries.Inc()
	if body, ok := sv.opts.Cache.Get(h); ok {
		sv.mFast.Inc()
		return body, "hit", nil
	}
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		sv.mRejected.Inc()
		return nil, "", errClosed
	}
	if c, ok := sv.pending[h]; ok {
		sv.mu.Unlock()
		sv.mCoalesced.Inc()
		<-c.done
		if c.err != nil {
			return nil, "", c.err
		}
		return c.body, "coalesced", nil
	}
	wait := false
	select {
	case sv.slots <- struct{}{}:
	default:
		if len(sv.pending)-len(sv.slots) >= sv.opts.QueueCap {
			sv.mu.Unlock()
			sv.mRejected.Inc()
			return nil, "", errOverloaded
		}
		wait = true
	}
	c := &call{done: make(chan struct{})}
	sv.pending[h] = c
	sv.wg.Add(1)
	sv.mu.Unlock()
	if wait {
		sv.slots <- struct{}{}
	}
	sv.evaluate(c, s, h)
	sv.mBatches.Inc()
	sv.mBatched.Inc()
	sv.mu.Lock()
	delete(sv.pending, h)
	<-sv.slots
	sv.mu.Unlock()
	close(c.done)
	sv.wg.Done()
	if c.err != nil {
		sv.mErrors.Inc()
		return nil, "", c.err
	}
	if c.hit {
		return c.body, "hit", nil
	}
	return c.body, "miss", nil
}

// evaluate resolves c by running its miss through eval. A panic there fails
// c, and so every query coalesced onto it, with an error naming it, which
// the handler answers with a 500, rather than ending the process.
func (sv *Service) evaluate(c *call, s spec.Spec, h string) {
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("serve: evaluation panicked: %v", r)
		}
	}()
	if c.body, c.hit, c.err = sv.eval(s, h, sv.opts.Cache); c.err != nil {
		c.err = fmt.Errorf("spec %s: %w", s, c.err)
	}
}

// Close drains the service: new queries are shed with errClosed, every
// pending call still evaluates, and Close returns once none is left.
func (sv *Service) Close() {
	sv.mu.Lock()
	sv.closed = true
	sv.mu.Unlock()
	sv.wg.Wait()
}

// Stats is the service's point-in-time operational snapshot.
type Stats struct {
	Cache cache.Stats `json:"cache"`
	// Queries counts every Query; FastHits the cache fast path; Coalesced
	// the queries that joined a pending call.
	Queries   int64 `json:"queries"`
	FastHits  int64 `json:"fast_hits"`
	Coalesced int64 `json:"coalesced"`
	// Batches and BatchedSpecs both count evaluated misses.
	Batches      int64 `json:"batches"`
	BatchedSpecs int64 `json:"batched_specs"`
	// Rejected counts load-shed and shutdown-shed queries; Errors failed
	// evaluations.
	Rejected int64 `json:"rejected"`
	Errors   int64 `json:"errors"`
	// Pending is the current evaluating + waiting call count.
	Pending int `json:"pending"`
}

// Stats snapshots the service.
func (sv *Service) Stats() Stats {
	sv.mu.Lock()
	pending := len(sv.pending)
	sv.mu.Unlock()
	return Stats{
		Cache:        sv.opts.Cache.Stats(),
		Queries:      sv.mQueries.Value(),
		FastHits:     sv.mFast.Value(),
		Coalesced:    sv.mCoalesced.Value(),
		Batches:      sv.mBatches.Value(),
		BatchedSpecs: sv.mBatched.Value(),
		Rejected:     sv.mRejected.Value(),
		Errors:       sv.mErrors.Value(),
		Pending:      pending,
	}
}
