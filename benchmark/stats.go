package main

import (
	"sort"
	"time"
)

// rng is splitmix64. The benchmark owns its generator so that a seed names
// the same inputs under every Go release: the golden digests depend on it.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s = r.s*1099511628211 + uint64(c)
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n); the modulo bias at n << 2^64 is
// far below anything a workload of a few thousand draws can show.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a shuffled 0..n-1 (Fisher-Yates).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// stratified draws n values in [lo, hi), one per equal-width stratum, in
// shuffled order. Every seed therefore covers the band evenly and the summed
// work of a run barely depends on the seed — the seed moves which operation
// gets which size, not how much work the run holds.
func (r *rng) stratified(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i, k := range r.perm(n) {
		out[i] = lo + (float64(k)+r.float())/float64(n)*(hi-lo)
	}
	return out
}

// quantile returns the q-quantile of sorted xs by nearest rank.
func quantile[T any](sorted []T, q float64) T {
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), which
// is what the acceptance check of this benchmark uses for spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
