package bench

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Tests of the arena a launch borrows (gpu.Cluster.Release): a functional
// cell's payload vectors come from it unzeroed and go back when the launch
// ends, so what a cell answers must not depend on which cell ran before it
// on the same worker.

// arenaCell is an allreduce cell's answer: its per-iteration time, its end
// and every rank's final recv vector.
type arenaCell struct {
	perIter sim.Duration
	end     sim.Time
	recvs   [][]float64
}

func runArenaCell(t *testing.T, cfg ScaleConfig) arenaCell {
	t.Helper()
	cfg.recvs = make([][]float64, cfg.Ranks)
	d, rep, err := ScaleAllreduce(cfg)
	if err != nil {
		t.Fatalf("%d B, alg %v: %v", cfg.Bytes, cfg.Alg, err)
	}
	return arenaCell{d, rep.End, cfg.recvs}
}

// TestArenaHistoryChangesNothing runs one allreduce cell, then twice a cell
// of a larger size and another algorithm (the first of those outgrows the
// arena's slabs, the second fills the slabs made for it), then the first
// cell again, which carves its vectors from those slabs with the other
// cell's contents in them. Both runs of the first cell must
// return byte-identical recvs, per-iteration time and End.
func TestArenaHistoryChangesNothing(t *testing.T) {
	m := machine.Perlmutter()
	first := ScaleConfig{Model: m, Ranks: 16, Bytes: 40 << 10, Alg: mpi.AlgRing, Iters: 4, Warmup: 1, Compute: true}
	other := ScaleConfig{Model: m, Ranks: 16, Bytes: 96 << 10, Alg: mpi.AlgHierarchical, Iters: 2, Warmup: 1, Compute: true}
	fresh := runArenaCell(t, first)
	runArenaCell(t, other)
	runArenaCell(t, other)
	warm := runArenaCell(t, first)
	if fresh.perIter != warm.perIter || fresh.end != warm.end {
		t.Fatalf("per-iteration %v, end %v on an empty arena; %v, %v after another cell",
			fresh.perIter, fresh.end, warm.perIter, warm.end)
	}
	for r := range fresh.recvs {
		if !bytes.Equal(floatBits(fresh.recvs[r]), floatBits(warm.recvs[r])) {
			t.Fatalf("rank %d's recv differs after another cell ran on the arena", r)
		}
	}
}

// TestPayloadDataPanicsAfterLaunch holds each of payload's three doors to
// the lifetime of a functional vector: it lives until its launch ends, and
// Data on it after that panics instead of showing whatever the next launch
// wrote there.
func TestPayloadDataPanicsAfterLaunch(t *testing.T) {
	doors := map[string]func(env *core.Env) func() []float64{
		"device": func(env *core.Env) func() []float64 { return payload{true}.device(env, 64).Data },
		"symmetric": func(env *core.Env) func() []float64 {
			return payload{true}.symmetric(env.ShmemPE(), 64).Local(env.WorldRank()).Data
		},
		"uniconn": func(env *core.Env) func() []float64 { return payload{true}.uniconn(env, 64).Data },
	}
	for name, door := range doors {
		var data func() []float64
		_, err := core.Launch(core.Config{Model: machine.Perlmutter(), NGPUs: 2, Backend: core.GpushmemBackend},
			func(env *core.Env) {
				d := door(env)
				clear(d()) // live inside the launch
				if env.WorldRank() == 0 {
					data = d
				}
			})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Data() after the launch ended did not panic", name)
				}
			}()
			data()
		}()
	}
}

// TestSecondLaunchHitsStagingArena checks that a launch finds the staging
// classes of the launch before it: the first eager send of the second launch
// is an arena hit, and its pool counters start from zero (gpu.PoolStats reads
// one launch's traffic).
func TestSecondLaunchHitsStagingArena(t *testing.T) {
	launch := func() buf.Stats {
		var st buf.Stats
		_, err := core.Launch(core.Config{Model: machine.Perlmutter(), NGPUs: 2}, func(env *core.Env) {
			comm, p := env.MPIComm(), env.Proc()
			v := gpu.AllocBuffer[float64](env.Device(), 64).Whole()
			if env.WorldRank() == 0 {
				comm.Send(p, v, 1, 0)
				st = gpu.PoolStats[float64](env.Device().Cluster())
			} else {
				comm.Recv(p, v, 0, 0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	launch()
	if st := launch(); st.Gets != 1 || st.Hits != 1 {
		t.Fatalf("second launch's first eager send: %+v, want one Get and one Hit", st)
	}
}

// TestWarmCellAllocBudget bounds what a warm coll-large-64r-shaped cell (64
// ranks, 1 MiB, 4 + 1 allreduces, Compute) allocates: at most 8 MiB. Its
// send and receive vectors alone are 128 MiB, and it allocated 135 MB while
// every cell zeroed its own; now the second cell of a process finds them in
// the arena the first one left.
func TestWarmCellAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates shadow state; run without -race")
	}
	cfg := ScaleConfig{Model: machine.Perlmutter(), Ranks: 64, Bytes: 1 << 20, Iters: 4, Warmup: 1, Compute: true}
	if _, _, err := ScaleAllreduce(cfg); err != nil {
		t.Fatal(err)
	}
	var err error
	got, _ := allocated(func() { _, _, err = ScaleAllreduce(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	msg := fmt.Sprintf("warm 64-rank 1 MiB allreduce cell allocated %s, budget 8MiB", HumanBytes(int64(got)))
	if got > 8<<20 {
		t.Error(msg)
	} else {
		t.Log(msg)
	}
}
