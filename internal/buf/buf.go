// Package buf provides a pooled, size-classed slice arena for message
// staging. The simulated data path follows one rule — clone only for a
// snapshot, scratch for overwrite-before-read, reduce on receive otherwise
// (DESIGN.md §11) — and this arena backs the first two: snapshots whose
// source may change before they are consumed (MPI eager staging, a rooted
// reduction's accumulator) and scratch whose old contents are never
// read (the recursive-doubling exchange buffer). Both are throwaways: fully
// overwritten on acquisition and dead as soon as the payload lands. Without
// pooling every such message allocates its payload again and the garbage
// collector dominates large-cell wall-clock time. Payloads that are merely
// combined into a destination never come here: they are reduced straight
// from where the protocol already holds them.
//
// A Pool[T] keeps per-size-class free lists of []T slices. Classes are
// powers of two from minClassLen up; Get rounds the request up to its class
// so a released slice is reusable by any request of the same class. Slices
// are returned with their previous contents (no zeroing), so callers must
// fully overwrite the requested length before reading it — a snapshot's
// acquisition is immediately followed by the copy, and scratch is only ever
// a receive target.
//
// Each gpu.Cluster owns its pools, so parallel sweep cells never share one
// (the same ownership rule as trace logs and metrics registries, see
// internal/bench/runner.go). Within a cell only the process holding the
// engine's ball runs, so a pool needs no lock: Get, Put and Stats run inside
// the engine or after the cell. Pooling is invisible to virtual time and to
// numerics — storage identity never influences simulation results.
package buf

import "math/bits"

const (
	// minClassLen is the element count of the smallest size class; smaller
	// requests are rounded up to it.
	minClassLen = 8

	// numClasses bounds the class table: the largest pooled class holds
	// minClassLen << (numClasses-1) elements (128 Mi elements); larger
	// requests bypass the pool entirely.
	numClasses = 25

	// perClassCap bounds the free slices retained per class, so a burst of
	// concurrent stagings (a wide fan-out) does not pin its high-water
	// memory for the life of the cell.
	perClassCap = 128
)

// classFor returns the class index for a request of n elements, or -1 when
// n exceeds the largest class.
func classFor(n int) int {
	if n <= minClassLen {
		return 0
	}
	c := bits.Len(uint(n-1)) - 3 // log2 ceil(n) relative to minClassLen = 2^3
	if c >= numClasses {
		return -1
	}
	return c
}

// Stats counts pool traffic, for tests and diagnostics.
type Stats struct {
	Gets   uint64 // total Get calls
	Hits   uint64 // Gets served from a free list
	Puts   uint64 // Put calls that retained the slice
	Drops  uint64 // Put calls that discarded it (full class or foreign cap)
	Pooled int    // free slices currently held, across all classes
}

// Pool is a size-classed free list of []T slices. The zero value is ready
// to use. One pool belongs to one simulation cell and is not safe for
// concurrent use.
type Pool[T any] struct {
	free  [numClasses][][]T
	stats Stats
}

// Get returns a slice of length n whose capacity is n's size class.
// Contents are unspecified: the caller must overwrite all n elements.
func (p *Pool[T]) Get(n int) []T {
	p.stats.Gets++
	c := classFor(n)
	if c < 0 {
		return make([]T, n)
	}
	if fl := p.free[c]; len(fl) > 0 {
		s := fl[len(fl)-1]
		fl[len(fl)-1] = nil
		p.free[c] = fl[:len(fl)-1]
		p.stats.Hits++
		p.stats.Pooled--
		return s[:n]
	}
	return make([]T, n, minClassLen<<c)
}

// Put returns a slice obtained from Get to its free list. Slices whose
// capacity is not an exact class size (oversize requests, foreign slices)
// and slices landing in a full class are dropped for the garbage collector.
func (p *Pool[T]) Put(s []T) {
	c := classFor(cap(s))
	if c < 0 || cap(s) != minClassLen<<c || len(p.free[c]) >= perClassCap {
		p.stats.Drops++
		return
	}
	p.stats.Puts++
	p.stats.Pooled++
	p.free[c] = append(p.free[c], s[:0])
}

// Stats returns a snapshot of the pool's traffic counters.
func (p *Pool[T]) Stats() Stats {
	return p.stats
}
