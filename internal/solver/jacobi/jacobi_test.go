package jacobi

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/trace"
)

func variantsFor(m *machine.Model) []Config {
	base := Config{Model: m, NX: 64, NY: 48, Iters: 20, Warmup: 5, Compute: true}
	mk := func(v Variant, b core.BackendID, mode core.LaunchMode) Config {
		c := base
		c.Variant, c.Backend, c.Mode = v, b, mode
		return c
	}
	cfgs := []Config{
		mk(NativeMPI, 0, 0),
		mk(NativeGPUCCL, 0, 0),
		mk(Uniconn, core.MPIBackend, core.PureHost),
		mk(Uniconn, core.GpucclBackend, core.PureHost),
	}
	if m.HasGPUSHMEM {
		cfgs = append(cfgs,
			mk(NativeGPUSHMEMHost, 0, 0),
			mk(NativeGPUSHMEMDevice, 0, 0),
			mk(Uniconn, core.GpushmemBackend, core.PureHost),
			mk(Uniconn, core.GpushmemBackend, core.PartialDevice),
			mk(Uniconn, core.GpushmemBackend, core.PureDevice),
		)
	}
	return cfgs
}

func name(c Config) string {
	if c.Variant == Uniconn {
		return fmt.Sprintf("Uniconn-%v-%v", c.Backend, c.Mode)
	}
	return c.Variant.String()
}

func TestAllVariantsMatchSerialReference(t *testing.T) {
	for _, model := range []*machine.Model{machine.Perlmutter(), machine.LUMI()} {
		for _, nGPUs := range []int{1, 3, 4} {
			want := RunSerial(64, 48, 25)
			for _, cfg := range variantsFor(model) {
				cfg := cfg
				cfg.NGPUs = nGPUs
				t.Run(fmt.Sprintf("%s_%s_n%d", model.Name, name(cfg), nGPUs), func(t *testing.T) {
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(res.checksum-want) > 1e-3*math.Abs(want) {
						t.Fatalf("checksum %v, want %v", res.checksum, want)
					}
					if res.PerIter <= 0 {
						t.Fatalf("per-iter time %v", res.PerIter)
					}
				})
			}
		}
	}
}

func TestModeledRunsMatchFunctionalTiming(t *testing.T) {
	// Virtual time must be independent of whether the functional payload
	// executes (the cost model, not the Go work, drives the clock).
	cfg := Config{
		Model: machine.Perlmutter(), NGPUs: 4, NX: 256, NY: 256,
		Iters: 10, Warmup: 2, Variant: NativeGPUCCL,
	}
	cfg.Compute = true
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Compute = false
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.PerIter != b.PerIter {
		t.Fatalf("functional %v != modeled %v", a.PerIter, b.PerIter)
	}
}

func TestUniconnOverheadSmall(t *testing.T) {
	// The headline claim (§VI-C): UNICONN within ~1% of native at every
	// GPU count. Check each backend pair on a modeled paper-like grid.
	type pair struct {
		native  Config
		uniconn Config
	}
	base := Config{
		Model: machine.Perlmutter(), NGPUs: 8, NX: 4096, NY: 4096,
		Iters: 50, Warmup: 10, Compute: false,
	}
	mk := func(v Variant, b core.BackendID, mode core.LaunchMode) Config {
		c := base
		c.Variant, c.Backend, c.Mode = v, b, mode
		return c
	}
	pairs := []pair{
		{mk(NativeMPI, 0, 0), mk(Uniconn, core.MPIBackend, core.PureHost)},
		{mk(NativeGPUCCL, 0, 0), mk(Uniconn, core.GpucclBackend, core.PureHost)},
		{mk(NativeGPUSHMEMHost, 0, 0), mk(Uniconn, core.GpushmemBackend, core.PureHost)},
		{mk(NativeGPUSHMEMDevice, 0, 0), mk(Uniconn, core.GpushmemBackend, core.PureDevice)},
	}
	for _, pr := range pairs {
		pr := pr
		t.Run(name(pr.uniconn), func(t *testing.T) {
			nat, err := Run(pr.native)
			if err != nil {
				t.Fatal(err)
			}
			uc, err := Run(pr.uniconn)
			if err != nil {
				t.Fatal(err)
			}
			over := (float64(uc.PerIter) - float64(nat.PerIter)) / float64(nat.PerIter) * 100
			if over > 3.0 || over < -3.0 {
				t.Fatalf("overhead %.2f%% (native %v, uniconn %v)", over, nat.PerIter, uc.PerIter)
			}
		})
	}
}

func TestScalingReducesPerIterTime(t *testing.T) {
	// Strong scaling on the modeled grid: more GPUs → faster iterations.
	base := Config{
		Model: machine.Perlmutter(), NX: 1 << 12, NY: 1 << 12,
		Iters: 20, Warmup: 5, Compute: false,
		Variant: Uniconn, Backend: core.GpucclBackend, Mode: core.PureHost,
	}
	var prev Result
	for i, n := range []int{4, 16, 64} {
		cfg := base
		cfg.NGPUs = n
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.PerIter >= prev.PerIter {
			t.Fatalf("%d GPUs (%v) not faster than previous (%v)", n, res.PerIter, prev.PerIter)
		}
		prev = res
	}
}

// TestInvalidConfigs pins the error of every rejected configuration: it
// names the failing field and its value, and never prints the config itself
// (whose pointers made the message differ from run to run).
func TestInvalidConfigs(t *testing.T) {
	m := machine.Perlmutter()
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Model: m, NGPUs: 0, NX: 8, NY: 8, Iters: 1}, "jacobi: NGPUs 0: need at least 1 GPU"},
		{Config{Model: m, NGPUs: 2, NX: 2, NY: 8, Iters: 1}, "jacobi: NX 2: need a grid at least 3 wide"},
		{Config{Model: m, NGPUs: 4, NX: 8, NY: 3, Iters: 1}, "jacobi: NY 3: need at least one row per GPU (4 GPUs)"},
		{Config{Model: m, NGPUs: 2, NX: 8, NY: 8, Iters: 0}, "jacobi: iters 0 and warmup 0: need iters >= 1 and warmup >= 0"},
		{Config{Model: m, NGPUs: 2, NX: 8, NY: 8, Iters: -3}, "jacobi: iters -3 and warmup 0: need iters >= 1 and warmup >= 0"},
		{Config{Model: m, NGPUs: 2, NX: 8, NY: 8, Iters: 1, Warmup: -1}, "jacobi: iters 1 and warmup -1: need iters >= 1 and warmup >= 0"},
		{Config{Model: m, NGPUs: 2, NX: 8, NY: 8, Iters: 1, Variant: Uniconn, Backend: core.MPIBackend, Mode: core.PureDevice},
			"jacobi: " + core.PureDevice.String() + " requires the GPUSHMEM backend"},
	} {
		_, err := Run(c.cfg)
		if err == nil || err.Error() != c.want || strings.Contains(err.Error(), "0x") {
			t.Errorf("Run(NGPUs %d, NX %d, NY %d, iters %d, warmup %d) = %v, want %q",
				c.cfg.NGPUs, c.cfg.NX, c.cfg.NY, c.cfg.Iters, c.cfg.Warmup, err, c.want)
		}
	}
}

func TestDecompose(t *testing.T) {
	cfg := Config{NGPUs: 3, NX: 10, NY: 10}
	total := 0
	for r := 0; r < 3; r++ {
		g := decompose(cfg, r)
		total += g.chunk
		if r == 0 && g.top != -1 {
			t.Error("rank 0 has a top neighbour")
		}
		if r == 2 && g.bot != -1 {
			t.Error("last rank has a bottom neighbour")
		}
		if r == 1 && (g.top != 0 || g.bot != 2) {
			t.Errorf("rank 1 neighbours %d %d", g.top, g.bot)
		}
	}
	if total != 10 {
		t.Fatalf("chunks sum to %d", total)
	}
}

func TestTraceRecordsSpans(t *testing.T) {
	tl := trace.New()
	_, err := Run(Config{
		Model: machine.Perlmutter(), NGPUs: 2, NX: 64, NY: 64,
		Iters: 3, Warmup: 1, Compute: false,
		Variant: Uniconn, Backend: core.GpucclBackend, Mode: core.PureHost,
		Trace: tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Len() == 0 {
		t.Fatal("no spans recorded")
	}
	kernels := 0
	var transfers []trace.Span
	for s := range tl.Sorted().Spans() {
		switch {
		case s.Kind == trace.KindStreamOp && strings.HasPrefix(s.Label, "kernel "):
			kernels++
		case s.Kind == trace.KindTransfer:
			transfers = append(transfers, s)
		}
	}
	// 4 iterations (incl. warmup) x 2 ranks of sweep kernels at least.
	if kernels < 8 {
		t.Fatalf("kernel spans = %d", kernels)
	}
	if len(transfers) == 0 {
		t.Fatal("no transfer spans")
	}
	var bytes int64
	for _, s := range transfers {
		bytes += s.Bytes
	}
	if bytes == 0 {
		t.Fatal("transfers carried no bytes")
	}
	if strings.Count(tl.Sorted().Summarize().Render(), "\n") < 2 { // the header and at least one row
		t.Fatal("empty summary")
	}
}

func TestSerialReferenceConverges(t *testing.T) {
	// The interior sum should increase toward the boundary-driven steady
	// state and never produce NaN.
	s10 := RunSerial(32, 32, 10)
	s100 := RunSerial(32, 32, 100)
	if !(s100 > s10) || math.IsNaN(s100) {
		t.Fatalf("serial sums: 10 iters %v, 100 iters %v", s10, s100)
	}
}
