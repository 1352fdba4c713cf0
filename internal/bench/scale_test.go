package bench

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestScaleAllreduceVerifies runs a 32-rank cell with Compute on for every
// algorithm x topology combination: the in-run verification panics on any
// wrong element, so a pass certifies the hierarchical data path (and the
// topology plumbing) end to end against the analytic reduction.
func TestScaleAllreduceVerifies(t *testing.T) {
	topos := map[string]fabric.TopologyConfig{
		"flat":      {},
		"fattree":   {Kind: fabric.TopoFatTree},
		"dragonfly": {Kind: fabric.TopoDragonfly},
	}
	algs := []mpi.AllreduceAlg{mpi.AlgAuto, mpi.AlgRecursiveDoubling, mpi.AlgRing, mpi.AlgHierarchical}
	for name, tc := range topos {
		for _, alg := range algs {
			d, _, err := ScaleAllreduce(ScaleConfig{
				Model: machine.Perlmutter(), Topology: tc, Ranks: 32,
				Bytes: 64 << 10, Alg: alg, Iters: 2, Warmup: 1,
				Compute: true,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, alg, err)
			}
			if d <= 0 {
				t.Fatalf("%s/%v: non-positive per-iteration time %v", name, alg, d)
			}
		}
	}
}

// TestHierarchicalBeatsRingOnFatTree pins the point of the hierarchical
// algorithm: at scale, concentrating inter-node traffic beats pushing every
// ring step across the network.
func TestHierarchicalBeatsRingOnFatTree(t *testing.T) {
	run := func(alg mpi.AllreduceAlg) sim.Duration {
		d, _, err := ScaleAllreduce(ScaleConfig{
			Model:    machine.Perlmutter(),
			Topology: fabric.TopologyConfig{Kind: fabric.TopoFatTree},
			Ranks:    256, Bytes: 64 << 10, Alg: alg,
			Iters: 2, Warmup: 1,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		return d
	}
	hier, ring := run(mpi.AlgHierarchical), run(mpi.AlgRing)
	if hier >= ring {
		t.Fatalf("hierarchical %v not faster than ring %v at 256 ranks", hier, ring)
	}
}

// TestScaleHierarchical1024Verifies is the CI bench-scale gate: a 1024-rank
// hierarchical allreduce on an auto-sized fat-tree must leave the analytic
// sum on every rank.
func TestScaleHierarchical1024Verifies(t *testing.T) {
	const ranks, elems = 1024, 8 << 10
	fill := func(rank, i int) float64 { return float64(rank%23 + i%17) }
	want := make([]float64, elems)
	for i := range want {
		for r := 0; r < ranks; r++ {
			want[i] += fill(r, i)
		}
	}
	m := machine.Perlmutter()
	m.Topology = fabric.TopologyConfig{Kind: fabric.TopoFatTree}
	_, err := core.Launch(core.Config{Model: m, NGPUs: ranks, Backend: core.MPIBackend}, func(env *core.Env) {
		send := gpu.AllocBuffer[float64](env.Device(), elems)
		recv := gpu.AllocBuffer[float64](env.Device(), elems)
		for i := range send.Data() {
			send.Data()[i] = fill(env.WorldRank(), i)
		}
		env.MPIComm().AllreduceAlg(env.Proc(), send.Whole(), recv.Whole(), gpu.ReduceSum, mpi.AlgHierarchical)
		for i, v := range recv.Data() {
			if v != want[i] {
				t.Errorf("rank %d elem %d = %v, want %v", env.WorldRank(), i, v, want[i])
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// vmHWMBytes reads the process's peak resident set from /proc/self/status.
func vmHWMBytes(t *testing.T) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("parsing VmHWM: %v", err)
			}
			return kb << 10
		}
	}
	t.Skip("VmHWM not present in /proc/self/status")
	return 0
}

// TestScaleMemoryBudget runs the full 4096-rank modeled (Compute off)
// hierarchical allreduce on a fat-tree and fails if the process's peak RSS
// exceeds a fixed budget. This is the O(ranks + switches) state audit in
// executable form: an accidental O(ranks^2) structure (per-pair routing
// tables, eager all-pairs endpoint state) blows through it at this scale
// immediately. The budget is tight enough to guard the data path too: the
// cell peaks near 77 MiB because its vectors are phantom (DESIGN.md section
// 11), and the two 64 KiB vectors per rank alone are 512 MiB the moment they
// turn real again (the cell peaked near 550 MiB when they were).
//
// Peak RSS is a property of a process, and this package's other tests hold
// far more than the budget (TestPhantomEqualsReal's real 4 MiB bandwidth
// cells, 512 MiB each), so the cell runs in a child: the test binary
// re-executed for this test alone, which reports its own peak.
func TestScaleMemoryBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation multiplies RSS; run without -race")
	}
	if runtime.GOOS != "linux" {
		t.Skip("VmHWM is linux-only")
	}
	if testing.Short() {
		t.Skip("4096-rank cell skipped in -short mode")
	}
	const budget = 256 << 20
	const childEnv = "UNICONN_MEMBUDGET_CHILD"
	if os.Getenv(childEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestScaleMemoryBudget$", "-test.v")
		cmd.Env = append(os.Environ(), childEnv+"=1")
		out, err := cmd.CombinedOutput()
		t.Logf("child:\n%s", out)
		if err != nil {
			t.Fatalf("4096-rank modeled cell in a child process: %v", err)
		}
		return
	}
	d, _, err := ScaleAllreduce(ScaleConfig{
		Model:    machine.Perlmutter(),
		Topology: fabric.TopologyConfig{Kind: fabric.TopoFatTree},
		Ranks:    4096, Bytes: 64 << 10, Alg: mpi.AlgHierarchical,
		Iters: 1, Warmup: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("non-positive per-iteration time %v", d)
	}
	hwm := vmHWMBytes(t)
	t.Logf("peak RSS %s of a %s budget", HumanBytes(hwm), HumanBytes(budget))
	if hwm > budget {
		t.Fatalf("peak RSS %s exceeds the %s budget for the 4096-rank modeled cell",
			HumanBytes(hwm), HumanBytes(budget))
	}
}

// TestFig6PaperScaleMemory runs Fig 6 at the paper's sizing — Serena-like
// (1.39 M rows, 62.6 M nnz) and Queen_4147-like (4.15 M rows, 327 M nnz),
// 10 000 iterations — and fails if the process's peak RSS exceeds 1 GiB, or
// if the run builds either matrix more than once. The cells are modelled, so
// the matrices are phantoms: row offsets only, 44 MB for the two, where the
// CSRs are over 4 GB. It peaks near 285 MiB, most of it the simulation's own
// garbage. It runs in a child for the reason TestScaleMemoryBudget does.
func TestFig6PaperScaleMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation multiplies RSS; run without -race")
	}
	if runtime.GOOS != "linux" {
		t.Skip("VmHWM is linux-only")
	}
	if testing.Short() {
		t.Skip("paper-scale Fig 6 skipped in -short mode")
	}
	const budget = 1 << 30
	const childEnv = "UNICONN_FIG6_PAPER_CHILD"
	if os.Getenv(childEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFig6PaperScaleMemory$", "-test.v")
		cmd.Env = append(os.Environ(), childEnv+"=1")
		out, err := cmd.CombinedOutput()
		t.Logf("child:\n%s", out)
		if err != nil {
			t.Fatalf("paper-scale Fig 6 in a child process: %v", err)
		}
		return
	}
	figs, err := RunFig6(Paper)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("%d Fig 6 panels, want 4", len(figs))
	}
	matrices.Lock()
	builds := matrices.builds
	matrices.Unlock()
	if builds != 2 {
		t.Errorf("paper-scale Fig 6 built %d matrices, want Serena and Queen once each", builds)
	}
	hwm := vmHWMBytes(t)
	t.Logf("peak RSS %s of a %s budget", HumanBytes(hwm), HumanBytes(budget))
	if hwm > budget {
		t.Fatalf("peak RSS %s exceeds the %s budget for paper-scale Fig 6", HumanBytes(hwm), HumanBytes(budget))
	}
}
