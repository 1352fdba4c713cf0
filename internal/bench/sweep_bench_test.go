package bench

// Wall-clock benchmarks for the parallel sweep. Each benchmark runs a
// realistic (but small) grid of independent simulations through sweep so
// `go test -bench=Sweep` measures end-to-end sweep throughput at the current
// GOMAXPROCS; compare `-cpu 1` with the default to see the parallel speedup.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/spec"
)

// BenchmarkSweepLatencyGrid sweeps a message-size × backend latency grid,
// the shape of the Fig 2/3 experiments.
func BenchmarkSweepLatencyGrid(b *testing.B) {
	sizes := Sizes(256, 8<<10)
	backends := []core.BackendID{core.MPIBackend, core.GpucclBackend}
	type cell struct {
		backend core.BackendID
		bytes   int64
	}
	cells := make([]cell, 0, len(sizes)*len(backends))
	for _, bk := range backends {
		for _, sz := range sizes {
			cells = append(cells, cell{bk, sz})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := sweep(nil, len(cells), func(j int, _ *collector) (sim.Duration, CellProfile, error) {
			cfg := NetConfig{
				Model: machine.Perlmutter(), Backend: cells[j].backend,
				API: machine.APIHost, Native: true, Inter: true,
				Bytes: cells[j].bytes, Iters: 10, Warmup: 2,
			}
			lat, _, err := LatencyRun(cfg)
			return lat, CellProfile{}, err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepChaos ramps fault severity over spec cells, the shape of
// uniconn chaos.
func BenchmarkSweepChaos(b *testing.B) {
	var specs []spec.Spec
	for _, sev := range []float64{0, 0.25, 0.5, 0.75, 1} {
		s := spec.Spec{Workload: spec.WorkloadNetLatency, Native: true, Inter: true, Bytes: 8 << 10,
			Iters: 10, Warmup: 2, Window: 4, FaultMode: spec.FaultDegrade, Severity: sev}
		specs = append(specs, s)
		s.Workload = spec.WorkloadNetBandwidth
		specs = append(specs, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SweepSpecs(nil, specs); err != nil {
			b.Fatal(err)
		}
	}
}
