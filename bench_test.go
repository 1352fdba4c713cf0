package uniconn_test

// One benchmark per paper artifact (see DESIGN.md §3): each regenerates the
// corresponding table or figure at a reduced-but-representative scale and
// reports the headline quantities as custom metrics (virtual microseconds,
// percent overheads). Wall-clock ns/op measures the simulator itself; the
// reproduced results are the reported metrics.
//
// Run all:  go test -bench=. -benchmem
// One fig:  go test -bench=BenchmarkFig5 -benchtime=1x

import (
	"testing"

	uniconn "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/solver/cg"
	"repro/internal/solver/jacobi"
	"repro/internal/sparse"
	"repro/internal/spec"
)

// benchSizes is the reduced sweep used inside benchmarks.
var benchSizes = []int64{8, 8 << 10, 1 << 20}

func mustLat(b *testing.B, cfg bench.NetConfig) sim.Duration {
	b.Helper()
	l, _, err := bench.LatencyRun(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// overheadPct is (x-ref)/ref in percent, the quantity of the embedded
// overhead plots in Figs. 3-4.
func overheadPct(x, ref sim.Duration) float64 {
	return (float64(x) - float64(ref)) / float64(ref) * 100
}

// mustSpec runs one spec cell and returns its value.
func mustSpec(b *testing.B, s spec.Spec) float64 {
	b.Helper()
	v, _, err := bench.SweepSpecs(nil, []spec.Spec{s})
	if err != nil {
		b.Fatal(err)
	}
	return v[0]
}

// BenchmarkFig2_NativeComparison reproduces the motivation benchmark
// (Fig. 2): native-library latency and bandwidth on Perlmutter and LUMI,
// intra- and inter-node. Metrics: small-message latency per library (us).
func BenchmarkFig2_NativeComparison(b *testing.B) {
	for _, m := range []*machine.Model{machine.Perlmutter(), machine.LUMI()} {
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, inter := range []bool{false, true} {
					for _, size := range benchSizes {
						for _, lib := range []struct {
							id  core.BackendID
							api machine.API
							ok  bool
						}{
							{core.MPIBackend, machine.APIHost, true},
							{core.GpucclBackend, machine.APIHost, true},
							{core.GpushmemBackend, machine.APIDevice, m.HasGPUSHMEM},
						} {
							if !lib.ok {
								continue
							}
							s := spec.Spec{Workload: spec.WorkloadNetLatency, Machine: m.Name,
								Backend: lib.id.String(), API: lib.api.String(),
								Native: true, Inter: inter, Bytes: size, Iters: 50, Warmup: 5}
							mustSpec(b, s)
							s.Workload = spec.WorkloadNetBandwidth
							mustSpec(b, s)
						}
					}
				}
			}
			// Representative metric: who wins tiny messages intra-node.
			mpi := mustLat(b, bench.NetConfig{Model: m, Backend: core.MPIBackend,
				API: machine.APIHost, Native: true, Bytes: 8, Iters: 50, Warmup: 5})
			ccl := mustLat(b, bench.NetConfig{Model: m, Backend: core.GpucclBackend,
				API: machine.APIHost, Native: true, Bytes: 8, Iters: 50, Warmup: 5})
			b.ReportMetric(mpi.Micros(), "mpi-8B-us")
			b.ReportMetric(ccl.Micros(), "ccl-8B-us")
		})
	}
}

// benchNativeVsUniconn drives Figs. 3 and 4: average UNICONN latency
// overhead across the reduced sweep for each library.
func benchNativeVsUniconn(b *testing.B, inter bool) {
	for _, m := range machine.All() {
		b.Run(m.Name, func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				worst = 0
				libs := []struct {
					id  core.BackendID
					api machine.API
					ok  bool
				}{
					{core.MPIBackend, machine.APIHost, true},
					{core.GpucclBackend, machine.APIHost, true},
					{core.GpushmemBackend, machine.APIHost, m.HasGPUSHMEM},
					{core.GpushmemBackend, machine.APIDevice, m.HasGPUSHMEM},
				}
				for _, lib := range libs {
					if !lib.ok {
						continue
					}
					sum, n := 0.0, 0
					for _, size := range benchSizes {
						cfg := bench.NetConfig{Model: m, Backend: lib.id, API: lib.api,
							Inter: inter, Bytes: size, Iters: 50, Warmup: 5}
						cfg.Native = true
						nat := mustLat(b, cfg)
						cfg.Native = false
						uc := mustLat(b, cfg)
						sum += overheadPct(uc, nat)
						n++
					}
					if avg := sum / float64(n); avg > worst {
						worst = avg
					}
				}
			}
			b.ReportMetric(worst, "worst-avg-overhead-%")
		})
	}
}

// BenchmarkFig3_IntraNodeOverhead reproduces Fig. 3 (intra-node native vs
// UNICONN; paper: ≤7% average).
func BenchmarkFig3_IntraNodeOverhead(b *testing.B) { benchNativeVsUniconn(b, false) }

// BenchmarkFig4_InterNodeOverhead reproduces Fig. 4 (inter-node; ≤3%).
func BenchmarkFig4_InterNodeOverhead(b *testing.B) { benchNativeVsUniconn(b, true) }

// BenchmarkFig5_JacobiScaling reproduces Fig. 5: Jacobi per-iteration time
// at 4..64 GPUs, with the UNICONN-vs-native difference as the metric
// (paper: <1% average).
func BenchmarkFig5_JacobiScaling(b *testing.B) {
	for _, m := range machine.All() {
		b.Run(m.Name, func(b *testing.B) {
			var diff64 float64
			var perIter sim.Duration
			for i := 0; i < b.N; i++ {
				for _, n := range []int{4, 16, 64} {
					base := jacobi.Config{
						Model: m, NGPUs: n, NX: 1 << 12, NY: 1 << 12,
						Iters: 30, Warmup: 5, Compute: false,
					}
					natCfg := base
					natCfg.Variant = solver.NativeGPUCCL
					nat, err := jacobi.Run(natCfg)
					if err != nil {
						b.Fatal(err)
					}
					ucCfg := base
					ucCfg.Variant, ucCfg.Backend, ucCfg.Mode = solver.Uniconn, core.GpucclBackend, core.PureHost
					uc, err := jacobi.Run(ucCfg)
					if err != nil {
						b.Fatal(err)
					}
					if n == 64 {
						diff64 = overheadPct(uc.PerIter, nat.PerIter)
						perIter = uc.PerIter
					}
				}
			}
			b.ReportMetric(perIter.Micros(), "64gpu-per-iter-us")
			b.ReportMetric(diff64, "64gpu-uniconn-diff-%")
		})
	}
}

// BenchmarkFig6_CG reproduces Fig. 6: CG on 8 GPUs for the two matrix
// classes on Perlmutter and LUMI, with UNICONN diffs and the MPI/GPUCCL
// ratio (the Allgatherv anomaly) as metrics.
func BenchmarkFig6_CG(b *testing.B) {
	for _, m := range []*machine.Model{machine.Perlmutter(), machine.LUMI()} {
		for _, spec := range []sparse.SyntheticSPDSpec{sparse.Serena(), sparse.Queen4147()} {
			mat := spec.Phantom(0.02)
			b.Run(m.Name+"/"+spec.Name, func(b *testing.B) {
				var ucDiff, mpiRatio float64
				for i := 0; i < b.N; i++ {
					base := cg.Config{Model: m, NGPUs: 8, Matrix: mat, Iters: 20, Compute: false}
					run := func(v solver.Variant, bk core.BackendID, mode core.LaunchMode) sim.Duration {
						c := base
						c.Variant, c.Backend, c.Mode = v, bk, mode
						r, err := cg.Run(c)
						if err != nil {
							b.Fatal(err)
						}
						return r.Total
					}
					natCCL := run(solver.NativeGPUCCL, 0, 0)
					ucCCL := run(solver.Uniconn, core.GpucclBackend, core.PureHost)
					natMPI := run(solver.NativeMPI, 0, 0)
					ucDiff = overheadPct(ucCCL, natCCL)
					mpiRatio = float64(natMPI) / float64(natCCL)
				}
				b.ReportMetric(ucDiff, "uniconn-diff-%")
				b.ReportMetric(mpiRatio, "mpi/ccl-ratio")
			})
		}
	}
}

// BenchmarkTable1_MachineModels renders Table I.
func BenchmarkTable1_MachineModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if bench.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2_SLOC recomputes Table II from the repository sources.
func BenchmarkTable2_SLOC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2("."); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_A1_Grouping measures CommStart/CommEnd grouping on the
// MPI backend: grouped vs serialized blocking bidirectional exchange
// (DESIGN.md ablation A1).
func BenchmarkAblation_A1_Grouping(b *testing.B) {
	run := func(grouped bool) sim.Duration {
		const count = 1 << 16
		rep, err := uniconn.Launch(uniconn.Config{
			Model: uniconn.Perlmutter(), NGPUs: 2, Backend: uniconn.MPIBackend,
		}, func(env *uniconn.Env) {
			me := env.WorldRank()
			comm := uniconn.NewCommunicator(env)
			stream := env.NewStream("s")
			coord := uniconn.NewCoordinator(env, uniconn.PureHost, stream)
			a := uniconn.Alloc[float64](env, count)
			c := uniconn.Alloc[float64](env, count)
			sync := uniconn.Alloc[uint64](env, 2)
			peer := 1 - me
			for iter := 1; iter <= 20; iter++ {
				v := uint64(iter)
				if grouped {
					coord.CommStart()
					uniconn.Post(coord, a.Base(), c.Base(), count, uniconn.Sig(sync, 0), v, peer, comm)
					uniconn.Acknowledge(coord, c.Base(), count, uniconn.Sig(sync, 1), v, peer, comm)
					coord.CommEnd()
				} else if me == 0 {
					uniconn.Post(coord, a.Base(), c.Base(), count, uniconn.Sig(sync, 0), v, peer, comm)
					uniconn.Acknowledge(coord, c.Base(), count, uniconn.Sig(sync, 1), v, peer, comm)
				} else {
					uniconn.Acknowledge(coord, c.Base(), count, uniconn.Sig(sync, 1), v, peer, comm)
					uniconn.Post(coord, a.Base(), c.Base(), count, uniconn.Sig(sync, 0), v, peer, comm)
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		return sim.Duration(rep.End)
	}
	var g, ug sim.Duration
	for i := 0; i < b.N; i++ {
		g, ug = run(true), run(false)
	}
	b.ReportMetric(float64(ug)/float64(g), "serialized/grouped-ratio")
}

// BenchmarkAblation_A2_LaunchModes compares PureHost, PartialDevice, and
// PureDevice Jacobi on the GPUSHMEM backend (ablation A2).
func BenchmarkAblation_A2_LaunchModes(b *testing.B) {
	for _, mode := range []core.LaunchMode{core.PureHost, core.PartialDevice, core.PureDevice} {
		b.Run(mode.String(), func(b *testing.B) {
			var perIter sim.Duration
			for i := 0; i < b.N; i++ {
				res, err := jacobi.Run(jacobi.Config{
					Model: machine.Perlmutter(), NGPUs: 8, NX: 1 << 12, NY: 1 << 12,
					Iters: 30, Warmup: 5, Compute: false,
					Variant: solver.Uniconn, Backend: core.GpushmemBackend, Mode: mode,
				})
				if err != nil {
					b.Fatal(err)
				}
				perIter = res.PerIter
			}
			b.ReportMetric(perIter.Micros(), "per-iter-us")
		})
	}
}

// BenchmarkAblation_A3_EagerThreshold walks the MPI latency curve across
// the eager→rendezvous protocol switch (ablation A3).
func BenchmarkAblation_A3_EagerThreshold(b *testing.B) {
	var below, above sim.Duration
	for i := 0; i < b.N; i++ {
		below = mustLat(b, bench.NetConfig{Model: machine.Perlmutter(),
			Backend: core.MPIBackend, API: machine.APIHost, Native: true,
			Bytes: 8 << 10, Iters: 50, Warmup: 5})
		above = mustLat(b, bench.NetConfig{Model: machine.Perlmutter(),
			Backend: core.MPIBackend, API: machine.APIHost, Native: true,
			Bytes: 16 << 10, Iters: 50, Warmup: 5})
	}
	b.ReportMetric(below.Micros(), "8KiB-us")
	b.ReportMetric(above.Micros(), "16KiB-us")
	b.ReportMetric(float64(above)/float64(below), "knee-ratio")
}

// BenchmarkAblation_A4_GroupFusion measures GPUCCL kernel-launch
// amortization: grouped vs ungrouped neighbour exchange (ablation A4).
func BenchmarkAblation_A4_GroupFusion(b *testing.B) {
	run := func(grouped bool) sim.Duration {
		var d sim.Duration
		_, err := uniconn.Launch(uniconn.Config{
			Model: uniconn.Perlmutter(), NGPUs: 2, Backend: uniconn.GpucclBackend,
		}, func(env *uniconn.Env) {
			comm := uniconn.NewCommunicator(env)
			stream := env.NewStream("s")
			coord := uniconn.NewCoordinator(env, uniconn.PureHost, stream)
			a := uniconn.Alloc[float64](env, 256)
			c := uniconn.Alloc[float64](env, 256)
			sync := uniconn.Alloc[uint64](env, 2)
			peer := 1 - env.WorldRank()
			start := env.Proc().Now()
			for iter := 1; iter <= 20; iter++ {
				v := uint64(iter)
				if grouped {
					coord.CommStart()
					uniconn.Post(coord, a.Base(), c.Base(), 256, uniconn.Sig(sync, 0), v, peer, comm)
					uniconn.Acknowledge(coord, c.Base(), 256, uniconn.Sig(sync, 1), v, peer, comm)
					coord.CommEnd()
				} else if env.WorldRank() == 0 {
					// Ungrouped bidirectional GPUCCL ops must be ordered
					// or they deadlock (real NCCL semantics; see
					// TestUngroupedBidirectionalDeadlocks).
					uniconn.Post(coord, a.Base(), c.Base(), 256, uniconn.Sig(sync, 0), v, peer, comm)
					uniconn.Acknowledge(coord, c.Base(), 256, uniconn.Sig(sync, 1), v, peer, comm)
				} else {
					uniconn.Acknowledge(coord, c.Base(), 256, uniconn.Sig(sync, 1), v, peer, comm)
					uniconn.Post(coord, a.Base(), c.Base(), 256, uniconn.Sig(sync, 0), v, peer, comm)
				}
				env.StreamSynchronize(stream)
			}
			if env.WorldRank() == 0 {
				d = env.Proc().Now().Sub(start)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	var g, ug sim.Duration
	for i := 0; i < b.N; i++ {
		g, ug = run(true), run(false)
	}
	b.ReportMetric(float64(ug)/float64(g), "ungrouped/grouped-ratio")
}
