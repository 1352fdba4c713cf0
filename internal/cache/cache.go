// Package cache is the content-addressed result cache of the cross-run
// performance layer: encoded simulation results keyed by their spec's
// content hash (internal/spec.Spec.Hash), so a cell that has been simulated
// once — in this process, in an earlier sweep, or (with disk persistence) in
// an earlier CLI invocation — is never simulated again.
//
// Correctness rests on two facts: the simulator is bit-deterministic for a
// given spec (DESIGN.md §8/§12), and the cache stores the *encoded bytes* of
// the result, returning them verbatim. A hit is therefore byte-identical to
// what a fresh run would have produced — the property the -race workers-1-
// vs-8 tests in internal/bench pin — and the cache can never be a source of
// nondeterminism, only of skipped work.
//
// The in-memory tier is a strict LRU bounded by both entry count and total
// value bytes. The optional disk tier (Options.Dir) writes each entry to
// <dir>/<hash> with an atomic rename, the value followed by its SHA-256, and
// reads it back on a memory miss; hashes are hex SHA-256, so keys are
// filename-safe by construction. A file whose trailer does not match its
// value (truncated, corrupted, or written before entries carried one) reads
// as a miss and is removed, and the next Put writes the entry afresh.
package cache

import (
	"container/list"
	"crypto/sha256"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/metrics"
)

// Default capacity bounds: generous for a long-running serve process (a
// typical encoded result is a few KiB; 64 MiB holds tens of thousands),
// small enough to never matter for a CLI sweep.
const (
	defaultMaxEntries = 16384
	defaultMaxBytes   = 64 << 20
)

// Options configures a cache.
type Options struct {
	// MaxEntries bounds the number of in-memory entries (<= 0 selects
	// defaultMaxEntries).
	MaxEntries int
	// MaxBytes bounds the summed value sizes held in memory (<= 0 selects
	// defaultMaxBytes). A single value larger than the bound is stored
	// alone (the cache never refuses a Put; it evicts instead).
	MaxBytes int64
	// Dir, when non-empty, persists entries to this directory (created on
	// first use) and consults it on memory misses, making results survive
	// process restarts.
	Dir string
}

// Stats is a point-in-time snapshot of the cache's counters and occupancy.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	DiskHits  int64 `json:"disk_hits"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// Cache is a content-addressed []byte store, safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	opts    Options
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	bytes   int64

	hits, misses, evictions, diskHits int64

	// Optional live instruments (SetMetrics); the int64 counters above are
	// the source of truth for Stats and exist even with metrics disabled.
	mHits, mMisses, mEvictions, mDiskHits *metrics.Counter
}

type entry struct {
	key string
	val []byte
}

// New creates a cache with the given options.
func New(opts Options) *Cache {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = defaultMaxEntries
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = defaultMaxBytes
	}
	return &Cache{
		opts:    opts,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// SetMetrics installs hit/miss/eviction/disk-hit counters from the registry;
// nil disables collection (the default).
func (c *Cache) SetMetrics(r *metrics.Registry) {
	c.mHits = r.Counter("cache.results.hits")
	c.mMisses = r.Counter("cache.results.misses")
	c.mEvictions = r.Counter("cache.results.evictions")
	c.mDiskHits = r.Counter("cache.results.disk_hits")
}

// Get returns a copy of the value stored under key. A memory miss consults
// the disk tier (when configured) and promotes a found entry into memory.
// The returned slice is the caller's to keep; it is byte-identical to what
// Put stored.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		val := append([]byte(nil), el.Value.(*entry).val...)
		c.hits++
		c.mu.Unlock()
		c.mHits.Inc()
		return val, true
	}
	c.mu.Unlock()
	if c.opts.Dir != "" {
		if val, ok := c.readDisk(key); ok {
			c.mu.Lock()
			c.insert(key, val)
			c.hits++
			c.diskHits++
			c.mu.Unlock()
			c.mHits.Inc()
			c.mDiskHits.Inc()
			return append([]byte(nil), val...), true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	c.mMisses.Inc()
	return nil, false
}

// Put stores a private copy of val under key and, when a disk tier is
// configured, persists it with an atomic rename. Re-putting an existing key
// refreshes its recency and replaces the value.
func (c *Cache) Put(key string, val []byte) {
	if c == nil || len(val) == 0 {
		return
	}
	stored := append([]byte(nil), val...)
	c.mu.Lock()
	c.insert(key, stored)
	c.mu.Unlock()
	if c.opts.Dir != "" {
		c.persist(key, stored)
	}
}

// insert adds or refreshes an entry and evicts LRU overflow. Called with
// the mutex held.
func (c *Cache) insert(key string, val []byte) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry)
		c.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&entry{key: key, val: val})
		c.bytes += int64(len(val))
	}
	for (c.ll.Len() > c.opts.MaxEntries || c.bytes > c.opts.MaxBytes) && c.ll.Len() > 1 {
		c.evictOldest()
	}
}

// evictOldest drops the least-recently-used entry. Called with the mutex
// held; never called on the last entry (an oversized single value stays).
func (c *Cache) evictOldest() {
	el := c.ll.Back()
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= int64(len(e.val))
	c.evictions++
	c.mEvictions.Inc()
}

// Stats snapshots the counters and occupancy.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		DiskHits: c.diskHits, Entries: c.ll.Len(), Bytes: c.bytes,
	}
}

// diskPath maps a key to its persisted file.
func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.opts.Dir, key)
}

// readDisk returns the value persisted under key when its file is a
// non-empty value followed by that value's SHA-256. Any other file is
// removed. A Put racing the removal may lose its fresh file to it, which
// costs a later miss, never a wrong hit.
func (c *Cache) readDisk(key string) ([]byte, bool) {
	path := c.diskPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if n := len(data) - sha256.Size; n > 0 && sha256.Sum256(data[:n]) == [sha256.Size]byte(data[n:]) {
		return data[:n:n], true
	}
	os.Remove(path)
	return nil, false
}

// persist writes the value and its SHA-256 with a temp-file + rename so
// readers never see a partial entry. Persistence is best-effort: a full disk
// degrades the cache to memory-only, it never fails the simulation that
// produced the result.
func (c *Cache) persist(key string, val []byte) {
	if err := os.MkdirAll(c.opts.Dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.opts.Dir, key+".tmp*")
	if err != nil {
		return
	}
	name := tmp.Name()
	sum := sha256.Sum256(val)
	_, err = tmp.Write(val)
	if err == nil {
		_, err = tmp.Write(sum[:])
	}
	if err != nil {
		tmp.Close()
		os.Remove(name)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, c.diskPath(key)); err != nil {
		os.Remove(name)
	}
}
