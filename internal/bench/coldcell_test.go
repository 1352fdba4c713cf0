package bench

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gpu"
	"repro/internal/gpushmem"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/spec"
)

// coldCellMessages is the number of simulated point-to-point messages a net
// spec carries: both directions of every ping-pong, or every window slot.
func coldCellMessages(s spec.Spec) int {
	bandwidth := s.Workload == spec.WorkloadNetBandwidth
	iters, warmup, window := NetConfig{Bytes: s.Bytes, Iters: s.Iters, Warmup: s.Warmup, window: s.Window}.counts(bandwidth)
	if bandwidth {
		return (iters + warmup) * window
	}
	return 2 * (iters + warmup)
}

func coldCellName(s spec.Spec) string {
	s = s.Normalize()
	impl := "uniconn"
	if s.Native {
		impl = "native"
	}
	return fmt.Sprintf("%s/%s-%s/%s/%s", s.Workload, s.Backend, s.API, impl, Placement(s.Inter))
}

// BenchmarkColdCell is the what-if service's miss, cell by cell: one uncached
// EvalSpec of each of the 32 grid cells at 2 KiB, reported per simulated
// message so cells of different lengths compare.
//
//	go test ./internal/bench -run '^$' -bench ColdCell -benchtime 20x
func BenchmarkColdCell(b *testing.B) {
	for _, s := range pinGrid() {
		s.Bytes = 2 << 10
		msgs := float64(coldCellMessages(s))
		b.Run(coldCellName(s), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := EvalSpec(s, EvalOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N) * msgs
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/msg")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/msg")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/msg")
		})
	}
}

// TestColdCellAllocsPerMessage holds the per-message allocation count of the
// cold cells whose cost was per-message bookkeeping (54, 30 and 19 at
// 4b4a797; 0.2, 7.1 and 5.1 before stream operations became recycled step
// machines, 0.1 each since): a fused GPUCCL window, a GPUCCL ping-pong and
// UNICONN's GPUSHMEM host put. Each ceiling sits about two allocations above
// the measured count, so one formatted name, one coroutine or one heap gate
// per message — or a trace log that boxes or re-copies per span — puts its
// cell back over.
func TestColdCellAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range []struct {
		s       spec.Spec
		ceiling float64
	}{
		{spec.Spec{Workload: spec.WorkloadNetBandwidth, Backend: "GPUCCL", Native: true, Inter: true, Bytes: 2 << 10}, 2},
		{spec.Spec{Workload: spec.WorkloadNetLatency, Backend: "GPUCCL", Native: true, Inter: true, Bytes: 2 << 10}, 2},
		{spec.Spec{Workload: spec.WorkloadNetBandwidth, Backend: "GPUSHMEM", Inter: true, Bytes: 2 << 10}, 2},
	} {
		perRun := testing.AllocsPerRun(2, func() {
			if _, _, err := EvalSpec(c.s, EvalOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		got := perRun / float64(coldCellMessages(c.s))
		t.Logf("%s: %.1f allocations per message (ceiling %.0f)", coldCellName(c.s), got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("%s: %.1f allocations per message, ceiling %.0f", coldCellName(c.s), got, c.ceiling)
		}
	}
}

// TestStreamOpAllocsPerOp holds the stream operations that run as steps of
// their stream's daemon at zero allocations per operation in steady state: a
// memcpy, an event record, a kernel whose payload cannot block (Compute) and a
// GPUSHMEM host put each run on a record recycled through their stream or PE,
// under a memoised label, with no closure. Each is issued n and 2n times, the
// host synchronizing after every one so its record comes back; the difference
// over n cancels the set-up.
func TestStreamOpAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ops := map[string]func(p *sim.Proc, s *gpu.Stream, pe *gpushmem.PE) func(){
		"memcpy": func(p *sim.Proc, s *gpu.Stream, _ *gpushmem.PE) func() {
			a, b := gpu.AllocBuffer[float64](s.Device(), 64), gpu.AllocBuffer[float64](s.Device(), 64)
			return func() { s.MemcpyAsync(p, b.Whole(), a.Whole(), 64) }
		},
		"event record": func(p *sim.Proc, s *gpu.Stream, _ *gpushmem.PE) func() {
			e := gpu.NewEvent("e")
			return func() { e.Record(s); e.Synchronize(p) }
		},
		"compute kernel": func(p *sim.Proc, s *gpu.Stream, _ *gpushmem.PE) func() {
			sum := 0
			k := &gpu.Kernel{Name: "k", Time: func(*gpu.Device) sim.Duration { return sim.Microsecond }, Compute: func() { sum++ }}
			return func() { s.Launch(p, k, nil) }
		},
		"gpushmem host put": func(p *sim.Proc, s *gpu.Stream, pe *gpushmem.PE) func() {
			sym := gpushmem.Malloc[float64](pe, 64)
			return func() { pe.PutOnStream(p, s, sym.WholeRef(), sym.Local(0).Whole(), 64, 1) }
		},
	}
	run := func(setup func(p *sim.Proc, s *gpu.Stream, pe *gpushmem.PE) func(), n int) float64 {
		return testing.AllocsPerRun(3, func() {
			eng := sim.NewEngine()
			defer eng.Close()
			cl := gpu.NewCluster(eng, machine.Perlmutter(), 2)
			pe := gpushmem.NewWorld(cl).PE(0)
			s := cl.Devices[0].DefaultStream()
			eng.Spawn("host", func(p *sim.Proc) {
				op := setup(p, s, pe)
				for i := 0; i < n; i++ {
					op()
					s.Synchronize(p)
				}
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 1000
	for name, setup := range ops {
		if perOp := (run(setup, 2*n) - run(setup, n)) / n; perOp > 0.01 {
			t.Errorf("%s: %.3f allocations per operation, want 0", name, perOp)
		}
	}
}
