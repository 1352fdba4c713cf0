package bench

// Shard-count determinism tests, mirroring the workers=1-vs-8 discipline of
// runner_test.go at the engine level: the same cell run at shards=1 and
// shards=N must produce bit-identical virtual-time results. Compares are
// always 1-vs-N — both sides run the windowed conservative-lookahead
// protocol, which is the determinism contract (the serial shards=0 path may
// legitimately time contended inter-node transfers differently).

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// runAllreduceCellShards launches a ranks-wide MPI allreduce cell at the
// given shard count and returns the finish time plus every rank's full
// result vector.
func runAllreduceCellShards(t *testing.T, shards, ranks, elems, iters int) (sim.Time, [][]float64) {
	t.Helper()
	out := make([][]float64, ranks)
	rep, err := core.Launch(core.Config{
		Model: machine.Perlmutter(), NGPUs: ranks,
		Backend: core.MPIBackend, Shards: shards,
	}, func(env *core.Env) {
		comm := env.MPIComm()
		p := env.Proc()
		send := gpu.AllocBuffer[float64](env.Device(), elems)
		recv := gpu.AllocBuffer[float64](env.Device(), elems)
		for i := range send.Data() {
			send.Data()[i] = float64(env.WorldRank()*7 + i)
		}
		for it := 0; it < iters; it++ {
			comm.Allreduce(p, send.Whole(), recv.Whole(), gpu.ReduceSum)
		}
		// Each rank writes only its own slot: race-free across shards.
		out[env.WorldRank()] = append([]float64(nil), recv.Data()...)
	})
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return rep.End, out
}

// TestAllreduceCellShardsDeterministic is the engine-level acceptance
// check (run under -race in CI): a 64-rank allreduce cell must finish at
// the same virtual time with the same buffer contents at shards=1 and
// shards=4.
func TestAllreduceCellShardsDeterministic(t *testing.T) {
	const ranks, elems, iters = 64, 256, 5
	end1, out1 := runAllreduceCellShards(t, 1, ranks, elems, iters)
	end4, out4 := runAllreduceCellShards(t, 4, ranks, elems, iters)
	if end1 != end4 {
		t.Fatalf("finish time diverged: shards=1 %v, shards=4 %v", end1, end4)
	}
	for r := 0; r < ranks; r++ {
		for i := range out1[r] {
			if out1[r][i] != out4[r][i] {
				t.Fatalf("rank %d elem %d diverged: shards=1 %v, shards=4 %v",
					r, i, out1[r][i], out4[r][i])
			}
		}
	}
}

// TestProcessorCountCannotChangeAnswer runs the serial 64-rank cell and its
// Shards: 4 counterpart at GOMAXPROCS 1 and 4: the trampoline resumes every
// rank on whichever thread runs the engine (for a shard, its worker), so how
// many processors the host offers must not reach a virtual-time result.
func TestProcessorCountCannotChangeAnswer(t *testing.T) {
	const ranks, elems, iters = 64, 256, 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, shards := range []int{0, 4} {
		runtime.GOMAXPROCS(1)
		end1, out1 := runAllreduceCellShards(t, shards, ranks, elems, iters)
		runtime.GOMAXPROCS(4)
		end4, out4 := runAllreduceCellShards(t, shards, ranks, elems, iters)
		if end1 != end4 {
			t.Fatalf("shards=%d: finish time diverged: GOMAXPROCS=1 %v, GOMAXPROCS=4 %v", shards, end1, end4)
		}
		if !reflect.DeepEqual(out1, out4) {
			t.Fatalf("shards=%d: result vectors diverged between GOMAXPROCS 1 and 4", shards)
		}
	}
}

// TestAllreduceCellShardsRendezvous repeats the check with vectors past the
// ring/rendezvous threshold, covering the staged-payload conduit path.
func TestAllreduceCellShardsRendezvous(t *testing.T) {
	const ranks, elems, iters = 16, 16 << 10, 2
	end1, out1 := runAllreduceCellShards(t, 1, ranks, elems, iters)
	end4, out4 := runAllreduceCellShards(t, 4, ranks, elems, iters)
	if end1 != end4 {
		t.Fatalf("finish time diverged: shards=1 %v, shards=4 %v", end1, end4)
	}
	for r := 0; r < ranks; r++ {
		for i := range out1[r] {
			if out1[r][i] != out4[r][i] {
				t.Fatalf("rank %d elem %d diverged: shards=1 %v, shards=4 %v",
					r, i, out1[r][i], out4[r][i])
			}
		}
	}
}

// TestFigureSweepShardsDeterministic renders Fig 6 with the engine forced
// to shards=1 and shards=4 and asserts byte-identical output, mirroring
// TestFigureSweepDeterministic's workers discipline. Non-MPI cells clamp to
// one shard on both sides; the MPI cells exercise the real 1-vs-N contract.
func TestFigureSweepShardsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second figure sweep")
	}
	render := func(shards string) string {
		t.Setenv(WorkersEnv, "4")
		t.Setenv(core.ShardsEnv, shards)
		figs, err := RunFig6(Quick)
		if err != nil {
			t.Fatalf("RunFig6(shards=%s): %v", shards, err)
		}
		var sb strings.Builder
		for _, f := range figs {
			sb.WriteString(f.Render())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	one := render("1")
	four := render("4")
	if one != four {
		t.Fatalf("figure output diverged between shards=1 and shards=4:\n--- shards=1 ---\n%s\n--- shards=4 ---\n%s", one, four)
	}
}

// TestChaosSweepShardsDeterministic runs a soft-fault severity ramp at
// shards=1 and shards=2 (the inter-node chaos cell spans two nodes) and
// asserts identical points. Hard-fault plans run sharded too — their
// determinism is covered by TestRecoveryShardDeterminismSwitchedTopologies.
func TestChaosSweepShardsDeterministic(t *testing.T) {
	cfg := chaosConfig(chaosBackends[0].backend)
	severities := []float64{0, 0.25, 0.5, 0.75, 1}
	sweep := func(shards string) []ChaosPoint {
		t.Setenv(core.ShardsEnv, shards)
		pts, _, err := ChaosSweep(cfg, severities, nil, nil)
		if err != nil {
			t.Fatalf("ChaosSweep(shards=%s): %v", shards, err)
		}
		return pts
	}
	one := sweep("1")
	two := sweep("2")
	if len(one) != len(two) {
		t.Fatalf("point counts diverged: %d vs %d", len(one), len(two))
	}
	for i := range one {
		if one[i] != two[i] {
			t.Fatalf("point %d diverged: shards=1 %+v, shards=2 %+v", i, one[i], two[i])
		}
	}
}
