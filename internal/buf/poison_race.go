//go:build race

package buf

import "math"

// poisoned fills s with NaN (all ones for an integer type) before it is
// handed out. The race build is what CI's test step runs, so a caller that
// reads an element of arena memory before writing it gets a wrong answer
// there, and a check on the answer fails, where the ordinary build would
// pass on whatever the slice last held.
func poisoned[T any](s []T) []T {
	switch v := any(s).(type) {
	case []float64:
		for i := range v {
			v[i] = math.NaN()
		}
	case []float32:
		for i := range v {
			v[i] = float32(math.NaN())
		}
	case []int32:
		for i := range v {
			v[i] = -1
		}
	case []int64:
		for i := range v {
			v[i] = -1
		}
	case []uint32:
		for i := range v {
			v[i] = math.MaxUint32
		}
	case []uint64:
		for i := range v {
			v[i] = math.MaxUint64
		}
	}
	return s
}
