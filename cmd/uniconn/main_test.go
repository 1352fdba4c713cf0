package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/spec"
)

// The stdout of record of every subcommand. The goldens were captured from
// the ten uniconn-* programs this command replaced (at the commit before
// they were folded), so a byte of difference is a behaviour change. To
// refresh one after an intended change, from this directory:
//
//	go run . <args...> > testdata/<name>.golden
//
// (scale-64 additionally needs its wall-clock column masked as maskWall does.)
var goldenCases = []struct {
	name string
	args []string
}{
	{"netbench-64k", []string{"netbench", "-max", "65536"}},
	{"netbench-lumi-inter-bw", []string{"netbench", "-machine", "LUMI", "-inter", "-bw", "-max", "65536"}},
	{"netbench-fattree-metrics", []string{"netbench", "-inter", "-topology", "fattree:8", "-max", "4096", "-metrics"}},
	{"jacobi", []string{"jacobi"}},
	{"jacobi-lumi16", []string{"jacobi", "-machine", "LUMI", "-gpus", "16", "-nx", "1024", "-ny", "1024", "-iters", "20"}},
	{"jacobi-sweep", []string{"jacobi", "-sweep", "-nx", "512", "-ny", "512", "-iters", "10"}},
	{"cg", []string{"cg"}},
	{"cg-queen-noag-lumi", []string{"cg", "-matrix", "queen", "-no-allgatherv", "-machine", "LUMI"}},
	{"advisor", []string{"advisor"}},
	{"advisor-query", []string{"advisor", "-size", "32768", "-inter"}},
	{"chaos", []string{"chaos"}},
	{"chaos-generate", []string{"chaos", "-generate", "-seed", "7", "-severities", "0,0.5,1"}},
	{"chaos-metrics", []string{"chaos", "-metrics", "-severities", "0,1"}},
	{"prof-jacobi", []string{"prof", "-workload", "jacobi", "-ngpus", "8"}},
	{"prof-cg", []string{"prof", "-workload", "cg"}},
	{"prof-shmem-device", []string{"prof", "-backend", "GPUSHMEM", "-device", "-max", "64"}},
	{"scale-64", []string{"scale", "-max-ranks", "64", "-ring-max-ranks", "64"}},
	{"experiments-table1", []string{"experiments", "-table", "1"}},
	{"experiments-table2", []string{"experiments", "-table", "2", "-root", "../.."}},
	{"experiments-fig6", []string{"experiments", "-fig", "6"}},
	{"sloc", []string{"sloc", "-root", "../.."}},
	{"sloc-files", []string{"sloc", "../../internal/bench/net_mpi.go", "../../internal/sloc/sloc.go"}},
}

// fileCases write artifacts; each runs in a scratch directory with relative
// paths (stdout's "wrote <path>" lines name them) and every file is compared
// with testdata/files-<file>.golden — or, for the multi-megabyte -profile
// traces, its SHA-256 with testdata/files-<file>.sha256.golden.
var fileCases = []struct {
	name  string
	args  []string
	files []string
}{
	{"files-prof", []string{"prof", "-workload", "cg", "-iters", "5", "-json", "prof.json", "-trace", "prof.trace"},
		[]string{"prof.json", "prof.trace"}},
	{"files-netbench", []string{"netbench", "-max", "64", "-profile", "netbench.trace"}, []string{"netbench.trace.sha256"}},
	{"files-chaos", []string{"chaos", "-severities", "0,1", "-profile", "chaos.trace"}, []string{"chaos.trace.sha256"}},
	{"files-jacobi", []string{"jacobi", "-gpus", "4", "-nx", "256", "-ny", "256", "-iters", "5", "-trace", "jacobi.trace"},
		[]string{"jacobi.trace"}},
}

// invoke runs one subcommand in-process.
func invoke(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return out.String(), errb.String(), status
}

// mustRun is invoke for invocations that must succeed.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	stdout, stderr, status := invoke(t, args...)
	if status != 0 {
		t.Fatalf("uniconn %s: exit %d\n%s", strings.Join(args, " "), status, stderr)
	}
	return stdout
}

// setProcs sets GOMAXPROCS, the width of every sweep, for the rest of the
// test.
func setProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func readGolden(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func compare(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s drifted from its golden:\n--- got ---\n%s\n--- want ---\n%s", what, got, want)
	}
}

// maskWall blanks scale's "wall s" column, the one non-deterministic field
// any subcommand prints: the last 12 characters of every row below the two
// header lines.
func maskWall(s string) string {
	lines := strings.SplitAfter(s, "\n")
	for i := 2; i < len(lines); i++ {
		lines[i] = wallColumn.ReplaceAllString(lines[i], "         *.*\n")
	}
	return strings.Join(lines, "")
}

var wallColumn = regexp.MustCompile(`.{12}\n$`)

func TestGoldenStdout(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			got := mustRun(t, c.args...)
			if c.args[0] == "scale" {
				got = maskWall(got)
			}
			compare(t, "stdout", got, readGolden(t, filepath.Join("testdata", c.name+".golden")))
		})
	}
}

func TestGoldenFiles(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fileCases {
		t.Run(c.name, func(t *testing.T) {
			t.Chdir(t.TempDir())
			compare(t, "stdout", mustRun(t, c.args...), readGolden(t, filepath.Join(testdata, c.name+".golden")))
			for _, f := range c.files {
				got, digest := strings.CutSuffix(f, ".sha256")
				body := readGolden(t, got)
				if digest {
					sum := sha256.Sum256([]byte(body))
					body = hex.EncodeToString(sum[:]) + "\n"
				}
				compare(t, f, body, readGolden(t, filepath.Join(testdata, "files-"+f+".golden")))
			}
		})
	}
}

// TestRejectedInvocations pins the failing invocations: status, a one-line
// diagnostic on stderr, and nothing on stdout — every one is refused before
// any cell runs.
func TestRejectedInvocations(t *testing.T) {
	for _, c := range []struct {
		args   []string
		status int
		stderr string
	}{
		{nil, 2, "usage: uniconn <subcommand>"},
		{[]string{"netbenchmark"}, 2, `unknown subcommand "netbenchmark"`},
		{[]string{"netbench", "-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"experiments", "-fig", "9"}, 2, "-fig 9: the figures are 2..6"},
		{[]string{"experiments", "-fig", "1"}, 2, "-fig 1: the figures are 2..6"},
		{[]string{"experiments", "-table", "5"}, 2, "-table 5: the tables are 1..2"},
		{[]string{"experiments", "-scale", "huge"}, 1, `unknown scale "huge"`},
		{[]string{"netbench", "-min", "0"}, 1, "-min 0: smallest message must be at least 1 byte"},
		{[]string{"prof", "-min", "0"}, 1, "-min 0: smallest message must be at least 1 byte"},
		{[]string{"prof", "-min", "64", "-max", "8"}, 1, "-max 8 is smaller than -min 64"},
		{[]string{"advisor", "-size", "-5"}, 1, "-size -5: message size must be at least 1 byte"},
		{[]string{"jacobi", "-machine", "Summit"}, 1, `unknown machine "Summit"`},
		{[]string{"cg", "-matrix", "dense"}, 1, `unknown matrix "dense"`},
		{[]string{"scale", "-max-ranks", "8"}, 1, "need -max-ranks >= 64"},
		{[]string{"scale", "-bytes", "12"}, 1, "-bytes 12: the vector size must be a positive multiple of 8"},
		{[]string{"scale", "-max-ranks", "16384"}, 2, "allreduce needs 2 <= ranks <= 4096 (got 16384)"},
		{[]string{"scale", "-ring-max-ranks", "5000"}, 2, "allreduce needs 2 <= ranks <= 4096 (got 5000)"},
		{[]string{"cg", "-scale", "-1"}, 2, "-scale -1: the matrix scale factor must be positive and finite"},
		{[]string{"cg", "-scale", "NaN"}, 2, "-scale NaN: the matrix scale factor must be positive and finite"},
		// A network no cluster can build, or too small for the largest cell,
		// is refused before any output, never by a panic mid-sweep.
		{[]string{"scale", "-topology", "fattree:3"}, 1, "fat-tree arity 3 must be even and in [2, 32]"},
		{[]string{"scale", "-topology", "fattree:1000000"}, 1, "fat-tree arity 1000000 must be even and in [2, 32]"},
		{[]string{"scale", "-topology", "fattree:2"}, 1, "2-ary fat-tree holds 2 nodes, cluster has 1024"},
		{[]string{"scale", "-topology", "dragonfly:1,1,0"}, 1, "dragonfly p=1 a=1 h=0: each must be in [1, 32]"},
		{[]string{"netbench", "-topology", "fattree:3"}, 1, "fat-tree arity 3 must be even and in [2, 32]"},
		{[]string{"chaos", "-recover", "-topology", "fattree:2"}, 1, "2-ary fat-tree holds 2 nodes, cluster has 8"},
		{[]string{"chaos", "-topology", "flat,fattree"}, 1, "topology lists are for -recover"},
		{[]string{"chaos", "-severities", "NaN,1"}, 1, "severity must be finite and >= 0 (got NaN)"},
		{[]string{"chaos", "-severities", "0,+Inf"}, 1, "severity must be finite and >= 0 (got +Inf)"},
		{[]string{"chaos", "-recover", "-ranks", "0"}, 2, "-ranks 0: the recovery workload needs at least 2 ranks"},
		{[]string{"chaos", "-recover", "-ranks", "1"}, 2, "-ranks 1: the recovery workload needs at least 2 ranks"},
		{[]string{"sloc", "-root", "/nonexistent"}, 1, "run from the repository root"},
		// The spec layer's admission bounds reach the net cells of every CLI.
		{[]string{"netbench", "-min", "12"}, 1, "bytes must be a positive multiple of 8 up to 1073741824 (got 12)"},
		{[]string{"netbench", "-max", "2147483648"}, 1, "bytes must be a positive multiple of 8 up to 1073741824 (got 2147483648)"},
		// A flag the chosen mode never reads is refused, not ignored.
		{[]string{"chaos", "-recover", "-inter=false"}, 2, "-inter has no effect in chaos -recover"},
		{[]string{"chaos", "-recover", "-bytes", "64"}, 2, "-bytes has no effect in chaos -recover"},
		{[]string{"chaos", "-recover", "-generate"}, 2, "-generate has no effect in chaos -recover"},
		{[]string{"chaos", "-recover", "-metrics"}, 2, "-metrics has no effect in chaos -recover"},
		{[]string{"chaos", "-recover", "-profile", "chaos.trace"}, 2, "-profile has no effect in chaos -recover"},
		{[]string{"chaos", "-ranks", "4"}, 2, "-ranks has no effect in chaos (degrade ramp)"},
		{[]string{"chaos", "-flight", "16"}, 2, "-flight has no effect in chaos (degrade ramp)"},
		{[]string{"chaos", "-seed", "7"}, 2, "-seed has no effect in chaos (degrade ramp)"},
		{[]string{"chaos", "-generate", "-ranks", "4"}, 2, "-ranks has no effect in chaos -generate"},
		{[]string{"chaos", "-generate", "-flight", "16"}, 2, "-flight has no effect in chaos -generate"},
		{[]string{"prof", "-ngpus", "8"}, 2, "-ngpus has no effect in prof -workload net"},
		{[]string{"prof", "-iters", "5"}, 2, "-iters has no effect in prof -workload net"},
		{[]string{"prof", "-workload", "jacobi", "-native"}, 2, "-native has no effect in prof -workload jacobi"},
		{[]string{"prof", "-workload", "jacobi", "-device"}, 2, "-device has no effect in prof -workload jacobi"},
		{[]string{"prof", "-workload", "cg", "-inter"}, 2, "-inter has no effect in prof -workload cg"},
		{[]string{"prof", "-workload", "cg", "-min", "8"}, 2, "-min has no effect in prof -workload cg"},
		{[]string{"prof", "-workload", "cg", "-max", "64"}, 2, "-max has no effect in prof -workload cg"},
		// GOMAXPROCS alone sets a sweep's width.
		{[]string{"netbench", "-workers", "1"}, 2, "flag provided but not defined: -workers"},
		{[]string{"chaos", "-workers", "1"}, 2, "flag provided but not defined: -workers"},
		{[]string{"scale", "-workers", "1"}, 2, "flag provided but not defined: -workers"},
		{[]string{"prof", "-workers", "1"}, 2, "flag provided but not defined: -workers"},
		{[]string{"experiments", "-workers", "1"}, 2, "flag provided but not defined: -workers"},
		{[]string{"serve", "-workers", "1"}, 2, "flag provided but not defined: -workers"},
	} {
		stdout, stderr, status := invoke(t, c.args...)
		if status != c.status || !strings.Contains(stderr, c.stderr) || stdout != "" {
			t.Errorf("uniconn %s: exit %d, stdout %q, stderr %q; want exit %d, empty stdout, stderr containing %q",
				strings.Join(c.args, " "), status, stdout, stderr, c.status, c.stderr)
		}
	}
	if _, stderr, status := invoke(t, "netbench", "-h"); status != 0 || !strings.Contains(stderr, "-machine") {
		t.Errorf("netbench -h: exit %d, stderr %q; want exit 0 and the flag list", status, stderr)
	}
}

// TestNonPositiveItersRejected: a solver run without a timed iteration is
// refused with an error naming the count, where it used to divide by zero in
// a runner goroutine (or, for negative counts, print a table of zeros).
func TestNonPositiveItersRejected(t *testing.T) {
	for _, args := range [][]string{
		{"jacobi", "-gpus", "2", "-iters", "0"},
		{"jacobi", "-gpus", "2", "-iters", "-3"},
		{"jacobi", "-gpus", "2", "-warmup", "-1"},
		{"cg", "-gpus", "2", "-iters", "0"},
		{"prof", "-workload", "jacobi", "-iters", "0"},
	} {
		_, stderr, status := invoke(t, args...)
		if status != 1 || !strings.Contains(stderr, "need iters >= 1") || strings.Contains(stderr, "panic") {
			t.Errorf("uniconn %s: exit %d, stderr %q; want exit 1 naming iters", strings.Join(args, " "), status, stderr)
		}
	}
}

// TestChaosGenerateIntraNode: a generated plan between two GPUs of one node
// is drawn over that node's fabric. It used to be drawn over two nodes and
// panic stalling a NIC the cluster does not have.
func TestChaosGenerateIntraNode(t *testing.T) {
	if out := mustRun(t, "chaos", "-generate", "-inter=false", "-severities", "0,0.5,1"); !strings.Contains(out, "intra-node") {
		t.Errorf("chaos -generate -inter=false printed no intra-node sweep:\n%s", out)
	}
}

// TestFailingCellKeepsSerialPrefix pins what a table printed cell by cell
// shows when a cell fails (three GPUs cannot split the GPUSHMEM heap evenly):
// everything up to the failing cell, as the serial loop the sweep replaced
// printed, then a non-zero exit.
func TestFailingCellKeepsSerialPrefix(t *testing.T) {
	stdout, stderr, status := invoke(t, "jacobi", "-gpus", "3", "-nx", "100", "-ny", "100")
	if status != 1 || !strings.Contains(stderr, "mismatched collective Malloc") {
		t.Errorf("exit %d, stderr %q; want exit 1 and the GPUSHMEM allocation error", status, stderr)
	}
	compare(t, "stdout", stdout, readGolden(t, "testdata/jacobi-fails-midrow.golden"))
}

// TestProfWorkersInvariant is the prof smoke: the small Fig-2 cell report is
// the committed golden (internal/bench pins the same file against its own
// sweep of the same spec cells) at GOMAXPROCS 1 and byte-identical at 8.
func TestProfWorkersInvariant(t *testing.T) {
	setProcs(t, 1)
	w1 := mustRun(t, "prof", "-native", "-min", "8", "-max", "8")
	setProcs(t, 8)
	w8 := mustRun(t, "prof", "-native", "-min", "8", "-max", "8")
	compare(t, "prof report", w1, readGolden(t, "../../internal/bench/testdata/prof_fig2_small.golden"))
	compare(t, "prof report at 8 workers", w8, w1)
}

// quickDigest is the SHA-256 of the full `uniconn experiments -scale quick`
// stdout (613 lines: Tables I and II and every quick figure), captured before
// Figs 2-4 were rewired onto spec cells.
const quickDigest = "b06a88aadbbb8c22d684984589aa992f281d73629cd3785345a5c9ba5f6b20d6"

// TestExperimentsQuickDigest pins the headline command's stdout, where the
// goldens above pin only Fig 6 and the tables. It skips under the race
// detector, which multiplies its several seconds; CI runs it in the no-race
// step.
func TestExperimentsQuickDigest(t *testing.T) {
	if raceEnabled {
		t.Skip("several seconds of simulation, multiplied by race instrumentation; run without -race")
	}
	out := mustRun(t, "experiments", "-scale", "quick", "-root", "../..")
	if n := strings.Count(out, "\n"); n != 613 {
		t.Errorf("experiments -scale quick printed %d lines, want 613", n)
	}
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != quickDigest {
		t.Errorf("experiments -scale quick stdout digest %s, want %s", got, quickDigest)
	}
}

// TestFig6WorkersInvariant byte-compares the CG figure at GOMAXPROCS 1 and 8
// (its bytes are pinned by the experiments-fig6 golden).
func TestFig6WorkersInvariant(t *testing.T) {
	setProcs(t, 1)
	w1 := mustRun(t, "experiments", "-scale", "quick", "-fig", "6")
	setProcs(t, 8)
	w8 := mustRun(t, "experiments", "-scale", "quick", "-fig", "6")
	compare(t, "Fig 6 at 8 workers", w8, w1)
}

// TestScaleWorkersInvariant: scale runs its cells as one sweep, and because
// a row is printed only once every row above it is, the table is the
// scale-64 golden's at GOMAXPROCS 1 and with every cell in flight at once.
func TestScaleWorkersInvariant(t *testing.T) {
	want := readGolden(t, filepath.Join("testdata", "scale-64.golden"))
	for _, procs := range []int{1, 8} {
		setProcs(t, procs)
		got := mustRun(t, "scale", "-max-ranks", "64", "-ring-max-ranks", "64")
		compare(t, fmt.Sprintf("scale at GOMAXPROCS %d", procs), maskWall(got), want)
	}
}

// TestRecoveryMatrix is the recovery results of record: the hard-fault
// sweep's table prints only virtual-time quantities, so per topology its
// stdout must equal the committed golden (a change to detector latency,
// failover counts or recovery end times fails here; refresh with
// `go run . chaos -recover -topology <topo> -severities 0,0.5,1 >
// testdata/recover-<kind>.golden`).
func TestRecoveryMatrix(t *testing.T) {
	for _, topo := range []string{"flat", "fattree", "dragonfly:1,2,2"} {
		t.Run(topo, func(t *testing.T) {
			kind, _, _ := strings.Cut(topo, ":")
			got := mustRun(t, "chaos", "-recover", "-topology", topo, "-severities", "0,0.5,1")
			compare(t, "recovery table", got, readGolden(t, filepath.Join("testdata", "recover-"+kind+".golden")))
		})
	}
}

// removedShardsEnv selected the windowed engine until DESIGN.md section 12
// removed it.
const removedShardsEnv = "UNICONN_SHARDS"

// TestOneAnswer: there is one engine, so nothing outside a spec or a command
// line may change a result. With the removed engine selector set in the
// environment, a spec evaluation and the scale and recovery tables must
// produce the bytes they produce without it.
func TestOneAnswer(t *testing.T) {
	s := spec.Spec{Workload: spec.WorkloadAllreduce, Ranks: 8, Bytes: 4096}
	answers := func() map[string]string {
		body, _, err := bench.EvalSpec(s, bench.EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return map[string]string{
			"EvalSpec":       string(body),
			"scale":          maskWall(mustRun(t, "scale", "-max-ranks", "64", "-topology", "flat")),
			"chaos -recover": mustRun(t, "chaos", "-recover", "-topology", "flat", "-severities", "0,1"),
		}
	}
	clean := answers()
	t.Setenv(removedShardsEnv, "4")
	for what, got := range answers() {
		compare(t, what+" with "+removedShardsEnv+"=4", got, clean[what])
	}
}

// TestNoShardsKnob keeps the removed engine selector from drifting back
// through a copy-pasted flag block or a doc: no subcommand defines -shards,
// and README.md and DESIGN.md mention the flag and its environment variable
// nowhere but DESIGN.md section 12, the record of the removal.
func TestNoShardsKnob(t *testing.T) {
	for _, c := range subcommands {
		_, stderr, status := invoke(t, c.name, "-shards", "1")
		if status != 2 || !strings.Contains(stderr, "flag provided but not defined: -shards") {
			t.Errorf("uniconn %s -shards 1: exit %d, stderr %q; want the undefined-flag rejection", c.name, status, stderr)
		}
	}
	design := readGolden(t, "../../DESIGN.md")
	record := regexp.MustCompile(`(?ms)^## 12\. .*?^## 13\. `)
	if !record.MatchString(design) {
		t.Fatal("DESIGN.md sections 12 and 13 not found")
	}
	docs := map[string]string{
		"README.md": readGolden(t, "../../README.md"),
		"DESIGN.md": record.ReplaceAllString(design, ""),
	}
	for name, text := range docs {
		for _, knob := range []string{"-shards", removedShardsEnv} {
			if strings.Contains(text, knob) {
				t.Errorf("%s mentions %s", name, knob)
			}
		}
	}
}

// TestNoBatchWindowKnob: a serve miss runs as soon as one of GOMAXPROCS
// slots is free, so there is no batch window, batch cap or slot count left
// to tune.
func TestNoBatchWindowKnob(t *testing.T) {
	for _, args := range [][]string{{"serve", "-batch-window", "1ms"}, {"serve", "-max-batch", "4"}, {"serve", "-inflight", "2"}} {
		_, stderr, status := invoke(t, args...)
		if status != 2 || !strings.Contains(stderr, "flag provided but not defined: "+args[1]) {
			t.Errorf("uniconn %s: exit %d, stderr %q; want the undefined-flag rejection", strings.Join(args, " "), status, stderr)
		}
	}
}
