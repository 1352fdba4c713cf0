package jacobi_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/solver/jacobi"
	"repro/internal/trace"
)

// updateGridPins rewrites testdata/grid_pins.golden from the current code:
//
//	go test ./internal/solver/jacobi -run TestSolverGridPins -args -update-grid-pins
//
// Only a deliberate change of the simulated model may do that; a change meant
// to make the simulator faster must replay the file byte for byte.
var updateGridPins = flag.Bool("update-grid-pins", false, "rewrite testdata/grid_pins.golden")

// spanSHA hashes every field of a run's sorted spans.
func spanSHA(log *trace.Log) string {
	h := sha256.New()
	for s := range log.Sorted().Spans() {
		fmt.Fprintf(h, "%d|%s|%s|%d|%d|%d|%d|%d|%d\n", s.Kind, s.Label, s.Track, s.Start, s.End, s.Bytes, s.Rank, s.Src, s.Dst)
	}
	return fmt.Sprintf("spans=%d:%x", log.Len(), h.Sum(nil))
}

// TestSolverGridPins replays testdata/grid_pins.golden byte for byte: the
// Result and span-log SHA-256 of every Fig 5 column on every machine at 4, 13
// and 64 GPUs, fast-forwarded and in full.
func TestSolverGridPins(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's tenfold cost; the grid is pinned without it")
	}
	var lines []string
	for _, m := range machines {
		for _, n := range []int{4, 13, 64} {
			for _, v := range bench.Variants(bench.Libs(m, false)) {
				for _, full := range []bool{false, true} {
					cfg := column(jacobi.Config{Model: m, NGPUs: n, NX: 4096, NY: n * 64, Iters: 60, Warmup: 10}, v)
					log := trace.New()
					cfg.Trace = log
					res, _, err := jacobi.RunFastForward(cfg, full)
					if err != nil {
						t.Fatalf("%s/%d/%s%s: %v", m.Name, n, v.CLI, v.Impl(), err)
					}
					mode := "ff"
					if full {
						mode = "full"
					}
					lines = append(lines, fmt.Sprintf("%s/%d/%s%s/%s per_iter=%d total=%d end=%d %s",
						m.Name, n, v.CLI, v.Impl(), mode, res.PerIter, res.Total, res.End, spanSHA(log)))
				}
			}
		}
	}
	comparePins(t, filepath.Join("testdata", "grid_pins.golden"), lines, *updateGridPins)
}

// comparePins checks lines against the golden file at path, or rewrites it.
func comparePins(t *testing.T, path string, lines []string, update bool) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d pinned lines, want %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("pin drifted:\n got  %s\n want %s", gl[i], wl[i])
		}
	}
}
