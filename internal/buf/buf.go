// Package buf provides the slice arena a launch borrows for its staging and
// payload memory. The simulated data path follows one rule — clone only for
// a snapshot, scratch for overwrite-before-read, reduce on receive otherwise
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
// A Pool[T] keeps a size-classed free list for staging and a few slabs for
// payload. Staging (Get, Put) classes are powers of two from minClassLen up,
// and Get rounds the request up to its class so a released slice is reusable
// by any request of the same class. Payload vectors (Take) — a functional
// cell's send and receive buffers, which live until their launch ends — are
// carved in order from the smallest slab with room and all come back at once
// when the launch ends, so a slab serves vectors of any shape: a window of
// 64 vectors, or one vector 64 times as long. Neither zeroes: a slice comes
// back with whatever it last held, so callers must write every element
// before reading it. A build with the race detector fills each slice handed
// out with NaN (poison_race.go), so a read before a write shows as a wrong
// answer there.
//
// A pool belongs to one launch at a time: the cluster borrows its pools at
// their first use and hands them back when the launch ends
// (gpu.Cluster.Release), Reset and Trim bracketing the launch, so parallel
// sweep cells never share one (the same ownership rule as trace logs and
// metrics registries, see internal/bench/runner.go). Within a cell only the
// process holding the engine's ball runs, so a pool needs no lock: Get, Put
// and Stats run inside the engine or after the cell. Pooling is invisible to
// virtual time and to numerics — storage identity never influences simulation
// results.
package buf

import (
	"math/bits"
	"slices"
)

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

// Stats counts staging traffic since the last Reset, for tests and
// diagnostics.
type Stats struct {
	Gets   uint64 // total Get calls
	Hits   uint64 // Gets served from a free list
	Puts   uint64 // Put calls that retained the slice
	Drops  uint64 // Put calls that discarded it (full class or foreign cap)
	Pooled int    // free slices currently held, across all classes
}

// Pool is a size-classed free list of []T staging slices plus slabs of
// payload. The zero value is ready to use. It is not safe for concurrent use.
type Pool[T any] struct {
	free  [numClasses][][]T
	used  uint32 // classes Get has drawn from since the last Reset, a bit each
	slabs [][]T  // payload, by ascending capacity; Take carves [0, len) of each in this launch
	taken int    // elements Take has handed out since the last Reset
	stats Stats
}

// Get returns a staging slice of length n whose capacity is n's size class.
// Contents are unspecified: the caller must overwrite all n elements.
func (p *Pool[T]) Get(n int) []T {
	p.stats.Gets++
	c := classFor(n)
	if c < 0 {
		return poisoned(make([]T, n))
	}
	p.used |= 1 << c
	if fl := p.free[c]; len(fl) > 0 {
		s := fl[len(fl)-1]
		fl[len(fl)-1] = nil
		p.free[c] = fl[:len(fl)-1]
		p.stats.Hits++
		p.stats.Pooled--
		return poisoned(s[:n])
	}
	return poisoned(make([]T, n, minClassLen<<c))
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

// Take returns a payload slice of length n, carved after the slices taken
// before it in this launch from the smallest slab with room for it. With
// none, it makes a slab as large as all this launch has taken, this slice
// included, and a quarter more: a launch's slabs then double as it goes,
// and hold a launch a little larger than it (a benchmark's size band).
// Contents are unspecified: the caller must write every element before
// reading it, and must not use the slice after the launch ends.
func (p *Pool[T]) Take(n int) []T {
	p.taken += n
	for i, s := range p.slabs {
		if off := len(s); n <= cap(s)-off {
			p.slabs[i] = s[:off+n]
			return poisoned(s[off : off+n : off+n])
		}
	}
	s := make([]T, n, p.taken+p.taken/4)
	i, _ := slices.BinarySearchFunc(p.slabs, cap(s), func(f []T, c int) int { return cap(f) - c })
	p.slabs = slices.Insert(p.slabs, i, s)
	return poisoned(s[:n:n])
}

// Reset starts a launch: the traffic counters restart from zero, no class
// counts as used, and every slab is whole again.
func (p *Pool[T]) Reset() {
	p.stats = Stats{Pooled: p.stats.Pooled}
	p.used, p.taken = 0, 0
	for i, s := range p.slabs {
		p.slabs[i] = s[:0]
	}
}

// Trim ends a launch, once nothing uses what it took: what the pool keeps
// for the next launch is about this one's footprint. It drops the staging
// classes and the slabs the launch never drew from, and every slab if it
// took less than a quarter of what they hold. A launch that drew nothing (a
// modelled cell) trims nothing.
func (p *Pool[T]) Trim() {
	if p.stats.Gets > 0 {
		for c := range p.free {
			if p.used&(1<<c) == 0 && len(p.free[c]) > 0 {
				p.stats.Pooled -= len(p.free[c])
				clear(p.free[c])
				p.free[c] = p.free[c][:0]
			}
		}
	}
	if p.taken > 0 {
		p.slabs = slices.DeleteFunc(p.slabs, func(s []T) bool { return len(s) == 0 })
		held := 0
		for _, s := range p.slabs {
			held += cap(s)
		}
		if 4*p.taken < held {
			clear(p.slabs)
			p.slabs = p.slabs[:0]
		}
	}
}

// Stats returns a snapshot of the pool's staging counters.
func (p *Pool[T]) Stats() Stats {
	return p.stats
}
