// Package bench implements the paper's measurement methodology and the
// experiment harness that regenerates every figure and table: OSU-derived
// latency/bandwidth microbenchmarks (Figs. 2-4), the Jacobi scaling study
// (Fig. 5), the CG study (Fig. 6), and the configuration/SLOC tables
// (Tables I-II).
package bench

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// percentDiff reports (x-ref)/ref in percent — the quantity of the
// embedded overhead plots in Figs. 3-4. A zero reference makes the ratio
// undefined: the result is NaN when x is also zero and ±Inf (matching the
// sign of x) otherwise, never a silent 0% that would hide a real
// difference. Plot paths render these as "n/a" (see pct).
func percentDiff(x, ref sim.Duration) float64 {
	if ref == 0 {
		if x == 0 {
			return math.NaN()
		}
		return math.Inf(int(sign(x)))
	}
	return (float64(x) - float64(ref)) / float64(ref) * 100
}

func sign(d sim.Duration) sim.Duration {
	if d < 0 {
		return -1
	}
	return 1
}

// pct formats a percentage for report notes, rendering the undefined
// values percentDiff produces for zero references as "n/a".
func pct(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", v)
}

// Sizes returns the power-of-two message sizes of an OSU sweep,
// inclusive of both bounds. minBytes must be positive: a doubling sweep
// from zero never terminates, and a negative start spins through negative
// sizes forever.
func Sizes(minBytes, maxBytes int64) []int64 {
	if minBytes < 1 {
		panic(fmt.Sprintf("bench: Sizes(%d, %d): minBytes must be >= 1 (a doubling sweep from %d never reaches %d)",
			minBytes, maxBytes, minBytes, maxBytes))
	}
	var out []int64
	for s := minBytes; s <= maxBytes && s > 0; s *= 2 {
		out = append(out, s)
	}
	return out
}

// byteUnits orders the binary units largest first so humanUnit can carry a
// value that rounds to the radix into the next unit up.
var byteUnits = []struct {
	shift uint
	name  string
}{{30, "GiB"}, {20, "MiB"}, {10, "KiB"}}

// HumanBytes formats a byte count with binary units. Exact multiples print
// as integers ("2KiB"); everything else keeps one decimal ("1.5KiB", and the
// decimal marks the value as rounded — 2047 prints "2.0KiB", distinguishable
// from an exact "2KiB") so a value like 1536 is not silently truncated to
// "1KiB". Values whose decimal would round to the radix carry into the next
// unit: 1<<20-1 is "1.0MiB", never "1024.0KiB". Negative counts are
// formatted by sign-prefixing the magnitude.
func HumanBytes(b int64) string {
	if b < 0 {
		if b == math.MinInt64 {
			// -b overflows; 2^63 bytes is exactly 2^33 GiB.
			return "-8589934592GiB"
		}
		return "-" + HumanBytes(-b)
	}
	for i, u := range byteUnits {
		if b >= 1<<u.shift {
			return humanUnit(b, i)
		}
	}
	return fmt.Sprintf("%dB", b)
}

// humanUnit renders b in byteUnits[i], carrying into byteUnits[i-1] when
// %.1f rounding would reach 1024.0 (b within half a decimal step below the
// radix — the old code printed "1024.0KiB" for 1<<20-1).
func humanUnit(b int64, i int) string {
	u := byteUnits[i]
	if b&(1<<u.shift-1) == 0 {
		return fmt.Sprintf("%d%s", b>>u.shift, u.name)
	}
	v := float64(b) / float64(int64(1)<<u.shift)
	if math.Round(v*10) >= 10240 && i > 0 {
		up := byteUnits[i-1]
		return fmt.Sprintf("%.1f%s", float64(b)/float64(int64(1)<<up.shift), up.name)
	}
	return fmt.Sprintf("%.1f%s", v, u.name)
}
