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
// Second, concurrent misses coalesce and batch by group commit. Identical
// specs join the same pending call (one simulation, many waiters). A miss
// that finds one of MaxInflight execution slots free starts a batch at
// once; misses arriving while every slot is busy queue, and the next slot
// to free takes the whole queue as one bench.EvalSpecs sweep — the same
// deterministic fan-out the CLIs use — until the queue is empty. Nothing
// waits on a clock. A queue cap sheds load (errOverloaded → 503) rather
// than accepting unbounded work.
//
// Determinism note: coalescing and batching change *when* and *how often* a
// cell is simulated, never *what* it returns — cell results are a pure
// function of the spec, and the cache stores encoded bytes. The service can
// therefore never serve two different answers for one spec.
package serve

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/spec"
)

// Defaults for Options zero values.
const (
	DefaultMaxInflight = 2
	DefaultQueueCap    = 1024
)

// errOverloaded reports a query rejected because the pending queue is full;
// the HTTP layer maps it to 503.
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
	// MaxInflight caps concurrently executing batches (0 = DefaultMaxInflight).
	MaxInflight int
	// QueueCap caps the specs queued while every slot is busy; beyond it
	// queries are shed with errOverloaded (0 = DefaultQueueCap).
	QueueCap int
}

// Service coalesces and batches spec queries over the result cache.
type Service struct {
	opts Options
	eval func([]spec.Spec, *cache.Cache) []bench.Evaluation // bench.EvalSpecs

	mu      sync.Mutex
	pending map[string]*call // spec hash → running or queued call
	queue   []*call          // calls waiting for a slot, in arrival order
	running int              // busy execution slots, at most MaxInflight
	closed  bool
	wg      sync.WaitGroup // one per busy slot

	mQueries, mFast, mCoalesced *metrics.Counter
	mBatches, mBatched          *metrics.Counter
	mRejected, mErrors          *metrics.Counter
}

// call is one pending simulation: the first requester of a spec creates it,
// identical requests join it, and the executing batch resolves it.
type call struct {
	spec spec.Spec
	hash string
	done chan struct{} // closed once body/hit/err are set
	body []byte
	hit  bool
	err  error
}

// New returns a service over the options.
func New(opts Options) *Service {
	if opts.Cache == nil {
		opts.Cache = cache.New(cache.Options{})
	}
	if opts.Registry == nil {
		opts.Registry = metrics.New()
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = DefaultMaxInflight
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = DefaultQueueCap
	}
	sv := &Service{
		opts:    opts,
		eval:    bench.EvalSpecs,
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

// Query answers one validated spec. The source return value reports how:
// "hit" (served from the cache, fast path or filled while queued), "miss"
// (this call's batch simulated it), or "coalesced" (joined another query's
// pending call). Blocks until the answer is ready; under overload or
// shutdown it fails fast with errOverloaded / errClosed.
func (sv *Service) Query(s spec.Spec) (body []byte, source string, err error) {
	return sv.query(s, s.Hash())
}

// query is Query for a spec whose hash h the caller already holds.
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
	free := sv.running < sv.opts.MaxInflight
	if !free && len(sv.queue) >= sv.opts.QueueCap {
		sv.mu.Unlock()
		sv.mRejected.Inc()
		return nil, "", errOverloaded
	}
	c := &call{spec: s, hash: h, done: make(chan struct{})}
	sv.pending[h] = c
	if free {
		sv.running++
		sv.wg.Add(1)
		go sv.runSlot([]*call{c})
	} else {
		sv.queue = append(sv.queue, c)
	}
	sv.mu.Unlock()
	<-c.done
	if c.err != nil {
		sv.mErrors.Inc()
		return nil, "", c.err
	}
	source = "miss"
	if c.hit {
		source = "hit"
	}
	return c.body, source, nil
}

// runSlot is one busy execution slot: it runs batch as a single
// deterministic sweep, resolves its calls, then takes whatever queued
// meanwhile as the next batch, and frees the slot when the queue is empty.
// Pending-map entries survive until resolution so late identical queries
// keep coalescing onto the executing call.
func (sv *Service) runSlot(batch []*call) {
	defer sv.wg.Done()
	for len(batch) > 0 {
		specs := make([]spec.Spec, len(batch))
		for i, c := range batch {
			specs[i] = c.spec
		}
		evals := sv.evalBatch(specs)
		sv.mBatches.Inc()
		sv.mBatched.Add(int64(len(batch)))
		sv.mu.Lock()
		for i, c := range batch {
			c.body, c.hit, c.err = evals[i].Body, evals[i].Hit, evals[i].Err
			delete(sv.pending, c.hash)
		}
		next := sv.queue
		sv.queue = nil
		if len(next) == 0 {
			sv.running--
		}
		sv.mu.Unlock()
		for _, c := range batch {
			close(c.done)
		}
		batch = next
	}
}

// evalBatch runs one batch through eval. A panic there fails every call of
// the batch with an error naming it, which its waiters answer with a 500,
// rather than ending the process; the slot then serves the queue as usual.
func (sv *Service) evalBatch(specs []spec.Spec) (evals []bench.Evaluation) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("serve: evaluation panicked: %v", r)
			evals = make([]bench.Evaluation, len(specs))
			for i := range evals {
				evals[i].Err = err
			}
		}
	}()
	return sv.eval(specs, sv.opts.Cache)
}

// Close drains the service: new queries are shed with errClosed, everything
// already queued executes, and Close returns once no slot is busy.
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
	// Batches counts executed sweeps; BatchedSpecs their summed sizes.
	Batches      int64 `json:"batches"`
	BatchedSpecs int64 `json:"batched_specs"`
	// Rejected counts load-shed and shutdown-shed queries; Errors failed
	// evaluations.
	Rejected int64 `json:"rejected"`
	Errors   int64 `json:"errors"`
	// Pending is the current running + queued call count.
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
