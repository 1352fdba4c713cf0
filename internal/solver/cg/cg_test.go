package cg

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/solver"
	"repro/internal/sparse"
)

func testMatrix() *sparse.CSR { return sparse.Laplace3D(6, 6, 4) } // 144 rows

// testIters keeps the residual far above machine epsilon so the
// cross-variant comparison is not dominated by summation-order noise.
const testIters = 5

func variantsFor(m *machine.Model) []Config {
	base := Config{Model: m, Matrix: testMatrix(), Iters: testIters, Compute: true}
	mk := func(v solver.Variant, b core.BackendID, mode core.LaunchMode) Config {
		c := base
		c.Variant, c.Backend, c.Mode = v, b, mode
		return c
	}
	cfgs := []Config{
		mk(solver.NativeMPI, 0, 0),
		mk(solver.NativeGPUCCL, 0, 0),
		mk(solver.Uniconn, core.MPIBackend, core.PureHost),
		mk(solver.Uniconn, core.GpucclBackend, core.PureHost),
	}
	if m.HasGPUSHMEM {
		cfgs = append(cfgs,
			mk(solver.NativeGPUSHMEMHost, 0, 0),
			mk(solver.NativeGPUSHMEMDevice, 0, 0),
			mk(solver.Uniconn, core.GpushmemBackend, core.PureHost),
			mk(solver.Uniconn, core.GpushmemBackend, core.PureDevice),
		)
	}
	return cfgs
}

func name(c Config) string {
	if c.Variant == solver.Uniconn {
		return fmt.Sprintf("Uniconn-%v-%v", c.Backend, c.Mode)
	}
	return c.Variant.String()
}

func TestAllVariantsMatchSerialResidual(t *testing.T) {
	want := RunSerial(testMatrix(), testIters)
	for _, model := range []*machine.Model{machine.Perlmutter(), machine.LUMI()} {
		for _, n := range []int{1, 3, 4} {
			for _, cfg := range variantsFor(model) {
				cfg := cfg
				cfg.NGPUs = n
				t.Run(fmt.Sprintf("%s_%s_n%d", model.Name, name(cfg), n), func(t *testing.T) {
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if rel := math.Abs(res.residual-want) / (math.Abs(want) + 1e-30); rel > 1e-9 {
						t.Fatalf("residual %v, want %v (rel %v)", res.residual, want, rel)
					}
					if res.Total <= 0 {
						t.Fatal("no time elapsed")
					}
				})
			}
		}
	}
}

func TestCGActuallyConverges(t *testing.T) {
	// The residual must shrink dramatically over CG iterations (it is a
	// Krylov method on an SPD matrix), both serially and distributed.
	m := testMatrix()
	r1 := RunSerial(m, 1)
	r40 := RunSerial(m, 40)
	if r40 > r1*1e-6 {
		t.Fatalf("poor serial convergence: r1=%v r40=%v", r1, r40)
	}
	cfg := Config{
		Model: machine.Perlmutter(), NGPUs: 4, Matrix: m, Iters: 40, Compute: true,
		Variant: solver.Uniconn, Backend: core.GpucclBackend, Mode: core.PureHost,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.residual > r1*1e-6 {
		t.Fatalf("poor distributed convergence: r1=%v r40=%v", r1, res.residual)
	}
}

func TestUniconnOverheadUnderTwoPercent(t *testing.T) {
	// Headline §VI-D claim: UNICONN CG within ~2% of native.
	mat := sparse.Serena().Generate(0.01) // ~14k rows, modeled timing
	base := Config{Model: machine.Perlmutter(), NGPUs: 8, Matrix: mat, Iters: 30, Compute: false}
	mk := func(v solver.Variant, b core.BackendID, mode core.LaunchMode) Config {
		c := base
		c.Variant, c.Backend, c.Mode = v, b, mode
		return c
	}
	pairs := [][2]Config{
		{mk(solver.NativeMPI, 0, 0), mk(solver.Uniconn, core.MPIBackend, core.PureHost)},
		{mk(solver.NativeGPUCCL, 0, 0), mk(solver.Uniconn, core.GpucclBackend, core.PureHost)},
		{mk(solver.NativeGPUSHMEMHost, 0, 0), mk(solver.Uniconn, core.GpushmemBackend, core.PureHost)},
		{mk(solver.NativeGPUSHMEMDevice, 0, 0), mk(solver.Uniconn, core.GpushmemBackend, core.PureDevice)},
	}
	for _, pr := range pairs {
		pr := pr
		t.Run(name(pr[1]), func(t *testing.T) {
			nat, err := Run(pr[0])
			if err != nil {
				t.Fatal(err)
			}
			uc, err := Run(pr[1])
			if err != nil {
				t.Fatal(err)
			}
			over := (float64(uc.Total) - float64(nat.Total)) / float64(nat.Total) * 100
			if over > 4 || over < -4 {
				t.Fatalf("overhead %.2f%% (native %v, uniconn %v)", over, nat.Total, uc.Total)
			}
		})
	}
}

func TestMPIAllgathervBottleneckAblation(t *testing.T) {
	// §VI-D: MPI CG is much slower than GPUCCL; with Allgatherv disabled
	// the two take similar time, isolating the collective as the culprit.
	// The pathology needs paper-scale vectors (Serena is 1.39M rows) for
	// the staging cost to dominate the fixed launch overheads.
	mat := sparse.Serena().Generate(0.2)
	base := Config{Model: machine.Perlmutter(), NGPUs: 8, Matrix: mat, Iters: 10, Compute: false}
	run := func(v solver.Variant, disable bool) Result {
		c := base
		c.Variant = v
		c.DisableAllgatherv = disable
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	mpiFull := run(solver.NativeMPI, false)
	cclFull := run(solver.NativeGPUCCL, false)
	if float64(mpiFull.Total) < 1.2*float64(cclFull.Total) {
		t.Fatalf("expected MPI CG (%v) well above GPUCCL CG (%v)", mpiFull.Total, cclFull.Total)
	}
	mpiNoAg := run(solver.NativeMPI, true)
	cclNoAg := run(solver.NativeGPUCCL, true)
	ratio := float64(mpiNoAg.Total) / float64(cclNoAg.Total)
	if ratio > 1.5 || ratio < 0.5 {
		t.Fatalf("without allgatherv MPI %v vs GPUCCL %v (ratio %.2f), expected similar",
			mpiNoAg.Total, cclNoAg.Total, ratio)
	}
}

// TestInvalidConfig pins the error of every rejected configuration: it names
// the failing field and its value, and never prints the config itself.
func TestInvalidConfig(t *testing.T) {
	m, mat := machine.Perlmutter(), testMatrix()
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Model: m, NGPUs: 2, Iters: 1}, "cg: no Matrix"},
		{Config{Model: m, NGPUs: 0, Matrix: mat, Iters: 1}, "cg: NGPUs 0: need at least 1 GPU"},
		{Config{Model: m, NGPUs: mat.Rows + 1, Matrix: mat, Iters: 1},
			fmt.Sprintf("cg: Matrix.Rows %d: need at least one row per GPU (%d GPUs)", mat.Rows, mat.Rows+1)},
		{Config{Model: m, NGPUs: 2, Matrix: mat, Iters: 0}, "cg: iters 0: need iters >= 1"},
		{Config{Model: m, NGPUs: 2, Matrix: mat, Iters: -3}, "cg: iters -3: need iters >= 1"},
		{Config{Model: m, NGPUs: 2, Matrix: sparse.Serena().Phantom(0.001), Iters: 1, Compute: true},
			"cg: the 1391-row Matrix is a phantom (row counts, no entries): a functional run (Compute=true) needs Generate's"},
		{Config{Model: m, NGPUs: 2, Matrix: mat, Iters: 1, Compute: true, DisableAllgatherv: true},
			"cg: the no-allgatherv ablation is timing-only (set Compute=false)"},
		{Config{Model: m, NGPUs: 4, Matrix: mat, Iters: 5, Variant: solver.Uniconn, Backend: core.GpushmemBackend, Mode: core.PartialDevice},
			"cg: PartialDevice: the Uniconn CG runs PureHost or PureDevice"},
		{Config{Model: m, NGPUs: 2, Matrix: mat, Iters: 1, Variant: solver.Uniconn, Backend: core.MPIBackend, Mode: core.PureDevice},
			"cg: PureDevice requires the GPUSHMEM backend"},
		{Config{Model: m, NGPUs: 2, Matrix: mat, Iters: 1, Variant: 9}, "cg: unknown implementation Variant(9)"},
	} {
		_, err := Run(c.cfg)
		if err == nil || err.Error() != c.want || strings.Contains(err.Error(), "0x") {
			t.Errorf("Run(NGPUs %d, iters %d) = %v, want %q", c.cfg.NGPUs, c.cfg.Iters, err, c.want)
		}
	}
}
