package faults

// Deterministic randomness for fault plans. Every draw comes from a
// splitmix64 stream keyed by (seed, site): the same seed and site name
// always yield the same sequence, independent of the order in which other
// sites draw, and never of wall clock. This is what makes generated fault
// scenarios reproducible bit-for-bit across runs and platforms.

import "math/bits"

// rand is a splitmix64 PRNG bound to one fault site.
type rand struct {
	state uint64
}

// newRand returns the stream for one (seed, site) pair. The site string is
// folded into the seed with an FNV-1a hash so distinct sites decorrelate
// even under adjacent seeds.
func newRand(seed uint64, site string) *rand {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= fnvPrime
	}
	r := &rand{state: seed ^ h}
	// One warm-up step so seed 0 with short sites still mixes.
	r.next()
	return r
}

// next advances the stream (splitmix64 finalizer).
func (r *rand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit draws uniformly from [0, 1).
func (r *rand) unit() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn draws uniformly from [0, n). n must be positive.
//
// Lemire's multiply-shift method with rejection: the raw 64-bit draw is
// mapped onto [0, n) via the high word of a 128-bit product, and draws
// landing in the biased low fringe (fewer than 2^64 mod n per residue) are
// rejected and retried. Unlike the previous `next() % n`, every residue is
// exactly equally likely. Callers that depended on the old draw sequence
// bump their site string (e.g. "slowrank" -> "slowrank/v2") so generated
// plans stay version-stamped rather than silently shifting.
func (r *rand) intn(n int) int {
	if n <= 0 {
		panic("faults: Intn with non-positive bound")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.next(), un)
	if lo < un {
		// threshold = 2^64 mod n; products with lo below it are the
		// overrepresented fringe and must be redrawn.
		threshold := -un % un
		for lo < threshold {
			hi, lo = bits.Mul64(r.next(), un)
		}
	}
	return int(hi)
}

// between draws uniformly from [lo, hi). The conversion rounds the product,
// so no CPU fuses it into the sum.
func (r *rand) between(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.unit())
}
