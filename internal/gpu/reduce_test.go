package gpu

import (
	"fmt"
	"testing"
)

// BenchmarkReduce times the host side of a device reduction over 320
// float64 (a 2 560 B coll-small-64r vector) for every op: reduceFrom, an
// exchange step's recv op= partial, and combineFrom, a chunked algorithm's
// first touch recv = send op partial. It reports ns per element.
func BenchmarkReduce(b *testing.B) {
	const n = 320
	d, x, y := &Buffer[float64]{data: make([]float64, n)}, &Buffer[float64]{data: make([]float64, n)}, &Buffer[float64]{data: make([]float64, n)}
	for i := range n {
		x.data[i], y.data[i] = float64(i%17), float64(i%5)
	}
	for _, op := range []ReduceOp{ReduceSum, ReduceProd, ReduceMin, ReduceMax} {
		b.Run(fmt.Sprintf("reduce/%v", op), func(b *testing.B) {
			copy(d.data, x.data)
			for b.Loop() {
				d.reduceFrom(y, 0, 0, n, op)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
		b.Run(fmt.Sprintf("combine/%v", op), func(b *testing.B) {
			for b.Loop() {
				d.combineFrom(x, y, 0, 0, 0, n, op)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
	}
}
