package machine

import (
	"sync"

	"repro/internal/fabric"
	"repro/internal/metrics"
)

// DefaultCostCacheCap bounds the memoization table. The working set of a
// steady-state cell is tiny — a handful of (path, size) pairs per collective
// — but a size-sweeping workload at thousands of ranks visits O(paths ×
// sizes) distinct keys, which an unbounded table would retain forever. The
// cap is generous enough that real cells never evict.
const DefaultCostCacheCap = 4096

// CostCache memoizes Model.Cost by exact (lib, api, path, bytes) key.
//
// Cost itself is a map probe plus floating-point curve evaluation; what makes
// it hot is repetition. Steady-state communication — a ring allreduce, a halo
// exchange, a sweep cell — resolves the same handful of (path, size) pairs
// for every message of every iteration, so after warm-up every lookup is one
// map probe. Keying on the exact byte count (not a size class) keeps cached
// results bit-identical to direct Cost calls: memoization must be invisible
// to virtual time.
//
// The table is bounded (DefaultCostCacheCap, adjustable via SetCap) with
// FIFO eviction: entries are evicted in insertion order, which is cheap,
// allocation-free on the hit path, and — like every cache policy here —
// invisible to virtual time, since an evicted entry is simply recomputed to
// the identical value. Lookups are mutex-guarded so a cache a caller hands
// to concurrent runs (core.Config.Costs) stays safe; the hit/miss split then
// depends on their interleaving, but the values returned never do.
//
// The Model is shared across parallel sweep cells, which is exactly why the
// cache does NOT live on the Model: each cell's gpu.Cluster carries its own
// CostCache over the shared model.
type CostCache struct {
	mu    sync.Mutex
	m     *Model
	cache map[costKey]fabric.LinkCost
	order []costKey // insertion order; order[next:] are the live entries' eviction queue
	next  int
	cap   int

	hits, misses, evictions *metrics.Counter // nil when metrics are disabled
}

type costKey struct {
	lib   Lib
	api   API
	path  fabric.Path
	bytes int64
}

// NewCostCache creates an empty cache over the model with the default cap.
func NewCostCache(m *Model) *CostCache {
	return &CostCache{m: m, cache: make(map[costKey]fabric.LinkCost), cap: DefaultCostCacheCap}
}

// SetCap changes the entry bound, evicting oldest-first if the cache is
// already over it. A cap < 1 is clamped to 1.
func (c *CostCache) SetCap(n int) {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	c.cap = n
	for len(c.cache) > c.cap {
		c.evictOldest()
	}
	c.mu.Unlock()
}

// SetMetrics installs hit/miss/eviction counters from the registry; nil
// disables collection (the default).
func (c *CostCache) SetMetrics(r *metrics.Registry) {
	c.hits = r.Counter("machine.costcache.hits")
	c.misses = r.Counter("machine.costcache.misses")
	c.evictions = r.Counter("machine.costcache.evictions")
}

// evictOldest removes the least-recently-inserted live entry. Called with
// the mutex held. Stale order entries (keys already evicted and re-inserted)
// cannot arise: a key is in order exactly once while cached, because Cost
// only appends on a true miss.
func (c *CostCache) evictOldest() {
	k := c.order[c.next]
	c.next++
	delete(c.cache, k)
	c.evictions.Inc()
	// Compact once the dead prefix dominates, so the queue does not grow
	// without bound across eviction churn.
	if c.next > len(c.order)/2 && c.next > 64 {
		c.order = append(c.order[:0], c.order[c.next:]...)
		c.next = 0
	}
}

// Cost returns m.Cost(lib, api, path, bytes), memoized.
func (c *CostCache) Cost(lib Lib, api API, path fabric.Path, bytes int64) fabric.LinkCost {
	k := costKey{lib, api, path, bytes}
	c.mu.Lock()
	if lc, ok := c.cache[k]; ok {
		c.hits.Inc()
		c.mu.Unlock()
		return lc
	}
	c.misses.Inc()
	lc := c.m.Cost(lib, api, path, bytes)
	if len(c.cache) >= c.cap {
		c.evictOldest()
	}
	c.cache[k] = lc
	c.order = append(c.order, k)
	c.mu.Unlock()
	return lc
}

// Len reports the number of cached entries.
func (c *CostCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}

// Model returns the underlying machine model.
func (c *CostCache) Model() *Model { return c.m }
