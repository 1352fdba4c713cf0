package bench

import (
	"bytes"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Rank-scaling benchmark: one allreduce cell at a configurable rank count,
// topology, and algorithm, timed in virtual time. This is the driver behind
// uniconn scale (the 64->4096 rank curves comparing flat vs fat-tree vs
// dragonfly networks and flat-ring vs hierarchical allreduce) and behind the
// benchmark's coll-* workloads.

// ScaleConfig selects one rank-scaling cell.
type ScaleConfig struct {
	Model *machine.Model
	// Topology, when not flat, runs the cell on a clone of Model with this
	// inter-node network; the zero value keeps the model's own (normally
	// flat).
	Topology fabric.TopologyConfig
	// Ranks is the GPU count; nodes follow from Model.GPUsPerNode.
	Ranks int
	// Bytes is the allreduce vector size per rank (float64 elements).
	Bytes int64
	// Alg forces an allreduce algorithm; mpi.AlgAuto selects by size/layout.
	Alg mpi.AllreduceAlg
	// Iters timed iterations after Warmup untimed ones (defaults 4 and 1).
	Iters, Warmup int
	// Shards is ignored; it stays only until benchmark/ stops setting it (ROADMAP 19).
	Shards int
	// Compute gives the cell real vectors, drawn unzeroed from the launch's
	// arena (gpu.Uninit): send is written with known values before the first
	// call, every call writes all of recv, and each rank's recv is checked
	// against one expected vector built once per cell. Off, the vectors are
	// phantom and the cell is a pure timing model — the mode the 4096-rank
	// memory-budget check runs in. Either way the calls fast-forward: each
	// rewrites recv from send alone and none writes send, so the last
	// simulated call leaves the recv a full run leaves.
	Compute bool
	// Metrics, when non-nil, collects the run's counters.
	Metrics *metrics.Registry
	// Trace, when non-nil, records the run's spans (critical-path and
	// comm-matrix extraction; see internal/trace).
	Trace *trace.Log

	// full turns fast-forward off, for the tests that compare a
	// fast-forwarded run with the full one.
	full bool
	// recvs, when non-nil, receives every rank's final recv vector (Compute
	// only), for the same tests.
	recvs [][]float64
}

// validate reports configuration errors.
func (cfg ScaleConfig) validate() error {
	if cfg.Model == nil {
		return fmt.Errorf("bench: nil model")
	}
	if cfg.Ranks < 2 {
		return fmt.Errorf("bench: scale cell needs >= 2 ranks (got %d)", cfg.Ranks)
	}
	if cfg.Bytes < 8 || cfg.Bytes%8 != 0 {
		return fmt.Errorf("bench: vector size must be a positive multiple of 8 (got %d)", cfg.Bytes)
	}
	return nil
}

// ScaleAllreduce runs the cell and returns the mean per-iteration virtual
// time plus the run report.
func ScaleAllreduce(cfg ScaleConfig) (sim.Duration, core.Report, error) {
	d, rep, _, err := cfg.run()
	return d, rep, err
}

// run runs the cell and also returns how many calls rank 0 simulated (-1
// when the cell ran without a fast-forward controller).
func (cfg ScaleConfig) run() (sim.Duration, core.Report, int, error) {
	if err := cfg.validate(); err != nil {
		return 0, core.Report{}, -1, err
	}
	iters, warmup := cfg.Iters, cfg.Warmup
	if iters == 0 {
		iters = 4
	}
	if warmup == 0 {
		warmup = 1
	}
	m := cfg.Model
	if cfg.Topology.Kind != fabric.TopoFlat {
		m = spec.WithTopology(m, cfg.Topology)
	}
	elems := int(cfg.Bytes / 8)
	var want []byte // every rank's expected recv, as float bits
	if cfg.Compute {
		want = expectedSum(cfg.Ranks, elems)
	}
	var timed sim.Duration
	rep, simulated, err := core.LaunchLoops(core.Config{
		Model: m, NGPUs: cfg.Ranks, Backend: core.MPIBackend,
		Metrics: cfg.Metrics, Trace: cfg.Trace,
	}, warmup, cfg.full, func(env *core.Env) {
		comm := env.MPIComm()
		p := env.Proc()
		send := payload{cfg.Compute}.device(env, elems)
		recv := payload{cfg.Compute}.device(env, elems)
		if cfg.Compute {
			// Element i is rank + i%17: integer-valued floats, so the sum
			// over ranks is exact and the verification below is an
			// equality check, not a tolerance.
			pattern(send.Data(), float64(env.WorldRank()), 1)
		}
		var start sim.Time
		for it := range env.Loop(p, 0, warmup+iters) {
			if it == warmup {
				// A barrier aligns every rank in virtual time so the timed
				// window measures the collective, not warmup skew.
				comm.Barrier(p)
				start = p.Now()
			}
			comm.AllreduceAlg(p, send.Whole(), recv.Whole(), gpu.ReduceSum, cfg.Alg)
		}
		if env.WorldRank() == 0 {
			timed = p.Now().Sub(start)
		}
		if cfg.Compute {
			data := recv.Data()
			if cfg.recvs != nil {
				cfg.recvs[env.WorldRank()] = slices.Clone(data)
			}
			if !bytes.Equal(floatBits(data), want) {
				n := float64(cfg.Ranks)
				for i, got := range data {
					if w := n*(n-1)/2 + n*float64(i%17); got != w {
						panic(fmt.Sprintf("bench: scale allreduce rank %d elem %d = %v, want %v",
							env.WorldRank(), i, got, w))
					}
				}
			}
		}
	})
	if err != nil {
		return 0, rep, simulated, err
	}
	return timed / sim.Duration(iters), rep, simulated, nil
}

// pattern sets data[i] = base + step*(i%17): the first 17, then doubling
// copies (a multiple of 17 long, so the pattern carries on).
func pattern(data []float64, base, step float64) {
	for i := range min(17, len(data)) {
		data[i] = base + step*float64(i)
	}
	for k := 17; k < len(data); k *= 2 {
		copy(data[k:], data[:k])
	}
}

// expectedSum is the float bits of every rank's recv after an allreduce sum
// of ranks send vectors of elems elements, rank r's being pattern(r, 1).
// Every value is a positive integer, so bit equality with it is ==.
func expectedSum(ranks, elems int) []byte {
	want := make([]float64, elems)
	n := float64(ranks)
	pattern(want, n*(n-1)/2, n)
	return floatBits(want)
}

// floatBits views a float64 slice as its bytes.
func floatBits(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}
