// Command benchmark is the repository's benchmark of record: six named
// workloads, end-to-end and per-layer metrics, golden-checked simulated
// results, and a traced run. See README.md beside this file.
//
//	bash benchmark/run.sh                          every workload, untraced then traced
//	bash benchmark/run.sh -workload W [-seed N] [-seconds S] [-trace 0|1]
//	bash benchmark/run.sh compare A.jsonl B.jsonl  verdict per workload x end-to-end metric
//	bash benchmark/run.sh -update-golden           rewrite golden.json
//	bash benchmark/run.sh -write-manifest          rewrite BENCHMARK.json from the code
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name         = flag.String("workload", "", "run one workload (default: all, each in a fresh process)")
		seed         = flag.Uint64("seed", 1, "workload seed: draws vector sizes and spec order inside each workload's bands")
		seconds      = flag.Float64("seconds", runSeconds, "run length the fixed operation counts are scaled to")
		traceFlag    = flag.Int("trace", 0, "0: end-to-end metrics, everything off; 1: the traced run and probes, per-layer metrics")
		scale        = flag.String("scale", "full", "full, or smoke (1-2 operations, probes at 1 iteration; for the self-test)")
		runs         = flag.Int("runs", 1, "all-workload mode: untraced runs per workload, at seeds seed..seed+runs-1")
		recordPath   = flag.String("record", "", "append this run's full record to a result file (JSON lines)")
		updateGolden = flag.Bool("update-golden", false, "recompute golden.json (seeds 1 and 2, and the smoke digests)")
		writeManif   = flag.Bool("write-manifest", false, "rewrite BENCHMARK.json at the repository root from the names in the code")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *scale != "full" && *scale != "smoke" {
		fatal(fmt.Errorf("-scale %q: want full or smoke", *scale))
	}
	if *seconds <= 0 || *runs < 1 {
		fatal(fmt.Errorf("-seconds and -runs must be positive"))
	}
	if err := checkHost(); err != nil {
		fatal(err)
	}
	// The simulator reads these; the benchmark's results must not.
	os.Unsetenv("UNICONN_SHARDS")
	os.Unsetenv("UNICONN_WORKERS")

	dir, err := benchDir()
	if err != nil {
		fatal(err)
	}
	outDir := filepath.Join(dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	opts := runOptions{seed: *seed, seconds: *seconds, trace: *traceFlag != 0, smoke: *scale == "smoke", outDir: outDir}

	switch {
	case *writeManif:
		b, err := manifestJSON()
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, "..", "BENCHMARK.json"), b, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	case *updateGolden:
		if err := writeGolden(filepath.Join(dir, "golden.json")); err != nil {
			fatal(err)
		}
	case *name == "":
		if *recordPath == "" {
			*recordPath = filepath.Join(outDir, "results.jsonl")
		}
		os.Exit(runAll(opts, *runs, *recordPath))
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		rec, err := runWorkload(w, opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if *recordPath != "" {
			if err := appendRecord(*recordPath, rec); err != nil {
				fatal(err)
			}
		}
		printRecord(os.Stdout, rec)
		if !rec.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// benchDir finds the benchmark's own directory from the working directory:
// the repository root (run.sh, the acceptance driver) or the directory
// itself (go run -C benchmark .).
func benchDir() (string, error) {
	for _, dir := range []string{"benchmark", "."} {
		if _, err := os.Stat(filepath.Join(dir, "golden.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the repository root or from benchmark/ (golden.json not found)")
}

// printRecord prints every metric by name with its unit and sample count,
// and as the last line the {correct, attempted, failed, metrics} object.
func printRecord(w io.Writer, rec *record) {
	h := rec.Host
	fmt.Fprintf(w, "# %s  workload=%s seed=%d trace=%t ops=%d\n", rec.Suite, rec.Workload, rec.Seed, rec.Trace, rec.Ops)
	fmt.Fprintf(w, "# host: %s  nproc=%d GOMAXPROCS=%d %s %s  git=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.OS, rec.GitRef)
	defs := endToEnd
	if rec.Trace {
		defs = perLayer()
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-36s %16.6g %-6s (n=%d)\n", d.Name, rec.Metrics[d.Name].Value, d.Unit, rec.Samples[d.Name])
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "# error: %s\n", e)
	}
	fmt.Fprintf(w, "# timed pass %.3f s  digest %s  golden %s  failed %d/%d\n",
		rec.WallS, rec.Digest, rec.Golden, rec.Failed, rec.Attempted)
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", last)
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads a result file: one record per line.
func readRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	for i, line := range bytes.Split(b, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// runAll runs every workload in a fresh process each (this binary,
// re-executed), so one workload's heap, GC pacing and peak RSS do not leak
// into the next: first the untraced runs, then the traced run of each.
func runAll(o runOptions, runs int, recordPath string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	status := 0
	child := func(w *workload, seed uint64, trace int) {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(trace), "-record", recordPath}
		if o.smoke {
			args = append(args, "-scale", "smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s seed %d trace %d: %v\n", w.name, seed, trace, err)
			status = 1
		}
		fmt.Println()
	}
	for r := 0; r < runs; r++ {
		for i := range workloads {
			child(&workloads[i], o.seed+uint64(r), 0)
		}
	}
	for i := range workloads {
		child(&workloads[i], o.seed, 1)
	}

	recs, err := readRecords(recordPath)
	if err != nil {
		fatal(err)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Workload < recs[j].Workload })
	fmt.Printf("# summary of %s (every untraced run on file)\n", recordPath)
	fmt.Printf("%-16s %5s %8s %8s", "workload", "seed", "ops", "wall_s")
	for _, d := range endToEnd {
		fmt.Printf(" %14s", d.Name)
	}
	fmt.Printf("  %s\n", "golden")
	for _, r := range recs {
		if r.Trace {
			continue
		}
		fmt.Printf("%-16s %5d %8d %8.2f", r.Workload, r.Seed, r.Ops, r.WallS)
		for _, d := range endToEnd {
			fmt.Printf(" %14.6g", r.Metrics[d.Name].Value)
		}
		verdict := r.Golden
		if !r.Correct {
			verdict += " FAILED"
		}
		fmt.Printf("  %s\n", verdict)
	}
	return status
}

// writeGolden recomputes the digests golden.json records.
func writeGolden(path string) error {
	out := map[string]string{}
	for i := range workloads {
		w := &workloads[i]
		// The traced run of -seconds S runs the operations of S/2.
		for _, c := range []struct {
			seed    uint64
			seconds float64
			smoke   bool
		}{{1, runSeconds, false}, {2, runSeconds, false}, {1, runSeconds / 2, false}, {2, runSeconds / 2, false}, {1, runSeconds, true}} {
			rec, err := runWorkload(w, runOptions{seed: c.seed, seconds: c.seconds, smoke: c.smoke, noGolden: true})
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, c.seed, err)
			}
			if rec.Failed > 0 {
				return fmt.Errorf("%s seed %d: %s", w.name, c.seed, strings.Join(rec.Errors, "; "))
			}
			key := goldenKey(w.name, c.seed, rec.Ops, c.smoke)
			out[key] = rec.Digest
			fmt.Printf("%s  %s\n", rec.Digest, key)
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
