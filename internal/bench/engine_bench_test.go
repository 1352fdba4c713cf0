package bench

// Engine-level cells: wall-clock cost of whole simulation cells that are
// dominated by event-engine overhead rather than by the cost model (many
// ranks, small messages, long dependency chains). BenchmarkCellLarge is a
// 64-rank allreduce cell at Fig 5/6 scale, where every collective round
// funnels thousands of park/wake transfers through the scheduler; the
// benchmark of record for that shape is the coll-small-64r workload
// (benchmark/README.md), and these functions are the quick local instrument.

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// runAllreduceCell launches one simulation cell: ranks processes on
// Perlmutter, each running iters MPI allreduces over elems float64 elements.
// It returns the finish time and, when out is non-nil, leaves every rank's
// result vector in out[rank].
func runAllreduceCell(tb testing.TB, ranks, elems, iters int, out [][]float64) sim.Time {
	tb.Helper()
	rep, err := core.Launch(core.Config{Model: machine.Perlmutter(), NGPUs: ranks, Backend: core.MPIBackend},
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
			if out != nil {
				out[env.WorldRank()] = append([]float64(nil), recv.Data()...)
			}
		})
	if err != nil {
		tb.Fatal(err)
	}
	return rep.End
}

// TestProcessorCountCannotChangeAnswer runs the 64-rank cell at GOMAXPROCS 1
// and 4: the trampoline resumes every rank on whichever thread runs the
// engine, so how many processors the host offers must not reach a
// virtual-time result.
func TestProcessorCountCannotChangeAnswer(t *testing.T) {
	const ranks, elems, iters = 64, 256, 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	out1, out4 := make([][]float64, ranks), make([][]float64, ranks)
	runtime.GOMAXPROCS(1)
	end1 := runAllreduceCell(t, ranks, elems, iters, out1)
	runtime.GOMAXPROCS(4)
	end4 := runAllreduceCell(t, ranks, elems, iters, out4)
	if end1 != end4 {
		t.Fatalf("finish time diverged: GOMAXPROCS=1 %v, GOMAXPROCS=4 %v", end1, end4)
	}
	if !reflect.DeepEqual(out1, out4) {
		t.Fatal("result vectors diverged between GOMAXPROCS 1 and 4")
	}
}

// BenchmarkCellLarge is the 64-rank allreduce cell (16 Perlmutter nodes):
// small vectors keep the recursive-doubling algorithm engine-bound, so the
// benchmark measures scheduler-transfer and per-message overhead, not the
// bandwidth model.
func BenchmarkCellLarge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runAllreduceCell(b, 64, 256, 20, nil)
	}
}

// BenchmarkCellLargeRing is the same cell with vectors large enough to take
// the ring algorithm (64 KiB threshold), adding rendezvous transfers and
// payload staging to the profile.
func BenchmarkCellLargeRing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runAllreduceCell(b, 64, 16<<10, 4, nil)
	}
}

// TestCollectiveAllocBudget bounds what the two 64-rank cells above allocate,
// in objects: the recursive-doubling cell of BenchmarkCellLarge (7 680 eager
// exchanges) at most 24 k — it was 52 097 while every pairwise exchange
// allocated its envelope, arrival closure, two Requests and posted receive;
// what is left is process spawn, the eager snapshot's buffer shell and one
// closure per collective — and the hierarchical cell of BenchmarkCellLargeRing at most
// 16 k (22 861). A blocking exchange that allocates per message again fails
// here before it shows in the benchmark's rt.allocs_per_op.
//
// It also bounds the bytes of a warm, untraced coll-small-64r-shaped cell
// (bench.ScaleAllreduce, 64 ranks x 2.5 KiB x 20, Compute, fast-forwarded)
// at 768 KiB: 2.21 MB while the controller's private span log kept every
// record and each head's state buffer grew from nil, and while each launch
// filled a new staging arena; 1.09 MB while the controller still kept a
// private log to digest each head's span history; about 690 KiB since.
func TestCollectiveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state")
	}
	for _, c := range []struct {
		name         string
		elems, iters int
		budget       float64
	}{
		{"recursive doubling, 64 ranks x 256 elements x 20", 256, 20, 24_000},
		{"hierarchical, 64 ranks x 16 Ki elements x 4", 16 << 10, 4, 16_000},
	} {
		runAllreduceCell(t, 64, c.elems, c.iters, nil) // warm the model's caches
		if got := testing.AllocsPerRun(3, func() { runAllreduceCell(t, 64, c.elems, c.iters, nil) }); got > c.budget {
			t.Errorf("%s: %.0f objects per cell, budget %.0f", c.name, got, c.budget)
		} else {
			t.Logf("%s: %.0f objects per cell (budget %.0f)", c.name, got, c.budget)
		}
	}
	cfg := ScaleConfig{Model: machine.Perlmutter(), Ranks: 64, Bytes: 2560, Iters: 20, Warmup: 1, Compute: true}
	var err error
	for range 2 { // the second cell is warm
		if _, _, err = ScaleAllreduce(cfg); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := allocated(func() { _, _, err = ScaleAllreduce(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if got > 768<<10 {
		t.Errorf("allreduce 64 ranks x 2.5 KiB x 20: %s per cell, budget 768KiB", HumanBytes(int64(got)))
	} else {
		t.Logf("allreduce 64 ranks x 2.5 KiB x 20: %s per cell (budget 768KiB)", HumanBytes(int64(got)))
	}
}

// BenchmarkCellMedium is the 8-rank variant (2 nodes), the Fig 6 scale.
func BenchmarkCellMedium(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runAllreduceCell(b, 8, 256, 20, nil)
	}
}
