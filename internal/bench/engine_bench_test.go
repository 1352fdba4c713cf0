package bench

// Engine-level cell benchmarks: wall-clock cost of whole simulation cells
// that are dominated by event-engine overhead rather than by the cost model
// (many ranks, small messages, long dependency chains). BenchmarkCellLarge
// is a 64-rank allreduce cell at Fig 5/6 scale, where every collective round
// funnels thousands of park/wake transfers through the scheduler; the
// benchmark of record for that shape is the coll-small-64r workload
// (benchmark/README.md). These functions stay as the instrument for the
// serial-vs-windowed engine decision (ROADMAP item 3): run them with
// -cpu 1,2,... and compare CellLarge against CellLargeShards1/4.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/machine"
)

// runAllreduceCell launches one simulation cell: ranks processes on
// Perlmutter, each running iters MPI allreduces over elems float64 elements.
// shards selects the engine shard count (0 = serial legacy engine).
func runAllreduceCell(b *testing.B, ranks, elems, iters, shards int) {
	b.Helper()
	_, err := core.Launch(core.Config{Model: machine.Perlmutter(), NGPUs: ranks, Backend: core.MPIBackend, Shards: shards},
		func(env *core.Env) {
			comm := env.MPIComm()
			p := env.Proc()
			send := gpu.AllocBuffer[float64](env.Device(), elems)
			recv := gpu.AllocBuffer[float64](env.Device(), elems)
			for i := range send.Data() {
				send.Data()[i] = float64(env.WorldRank() + i)
			}
			for it := 0; it < iters; it++ {
				comm.Allreduce(p, send.Whole(), recv.Whole(), gpu.ReduceSum)
			}
		})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCellLarge is the 64-rank allreduce cell (16 Perlmutter nodes):
// small vectors keep the recursive-doubling algorithm engine-bound, so the
// benchmark measures scheduler-transfer and per-message overhead, not the
// bandwidth model.
func BenchmarkCellLarge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runAllreduceCell(b, 64, 256, 20, 0)
	}
}

// BenchmarkCellLargeRing is the same cell with vectors large enough to take
// the ring algorithm (64 KiB threshold), adding rendezvous transfers and
// payload staging to the profile.
func BenchmarkCellLargeRing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runAllreduceCell(b, 64, 16<<10, 4, 0)
	}
}

// BenchmarkCellMedium is the 8-rank variant (2 nodes), the Fig 6 scale.
func BenchmarkCellMedium(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runAllreduceCell(b, 8, 256, 20, 0)
	}
}

// BenchmarkCellLargeShards1/4 run the 64-rank cell on the windowed
// parallel-in-virtual-time engine. Shards1 isolates the windowing overhead
// against BenchmarkCellLarge; Shards4 adds real parallelism on multi-core
// hosts (the 16 nodes are spread over 4 worker goroutines).
func BenchmarkCellLargeShards1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runAllreduceCell(b, 64, 256, 20, 1)
	}
}

func BenchmarkCellLargeShards4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runAllreduceCell(b, 64, 256, 20, 4)
	}
}
