package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/spec"
	"repro/internal/trace"
)

// updatePins rewrites testdata/p2p_pins.golden from the current code:
//
//	go test ./internal/bench -run TestPinnedAnswers -args -update-pins
//
// Only a deliberate change of the simulated model may do that; a change meant
// to make the simulator faster must replay the file byte for byte.
var updatePins = flag.Bool("update-pins", false, "rewrite testdata/p2p_pins.golden")

// pinSizes straddle the latency default-iteration step (8 KiB), MPI's eager
// limit and the payload-bound regime.
var pinSizes = []int64{8, 2 << 10, 16 << 10, 1 << 20}

// pinGrid is the what-if service's 32-cell point-to-point grid (workload x
// library/API x native x inter), the cells benchmark/serve.go cycles.
func pinGrid() []spec.Spec {
	var grid []spec.Spec
	for _, wl := range []string{spec.WorkloadNetLatency, spec.WorkloadNetBandwidth} {
		for _, ba := range [][2]string{{"MPI", "Host"}, {"GPUCCL", "Host"}, {"GPUSHMEM", "Host"}, {"GPUSHMEM", "Device"}} {
			for _, native := range []bool{false, true} {
				for _, inter := range []bool{false, true} {
					grid = append(grid, spec.Spec{Workload: wl, Backend: ba[0], API: ba[1], Native: native, Inter: inter})
				}
			}
		}
	}
	return grid
}

// spanDigest hashes every field of the run's spans in sorted order, so a
// reordered fabric booking shows even where the headline times survive it.
func spanDigest(log *trace.Log) string {
	h := sha256.New()
	for s := range log.Sorted().Spans() {
		fmt.Fprintf(h, "%d|%s|%s|%d|%d|%d|%d|%d|%d\n", s.Kind, s.Label, s.Track, s.Start, s.End, s.Bytes, s.Rank, s.Src, s.Dst)
	}
	return fmt.Sprintf("spans=%d:%x", log.Len(), h.Sum(nil)[:8])
}

// pinMixedGroup is one GPUCCL cell no benchmark runs: on four ranks over two
// nodes, a single group fuses an AllReduce with a ring exchange on the default
// stream and a reverse ring exchange on a second stream, twice.
func pinMixedGroup(t *testing.T) string {
	const n, elems = 4, 512
	ends := make([]sim.Time, n)
	sums := make([]float64, n)
	log := trace.New()
	m := *machine.Perlmutter()
	m.GPUsPerNode = 2
	_, err := core.Launch(core.Config{Model: &m, NGPUs: n, Backend: core.GpucclBackend, Trace: log}, func(env *core.Env) {
		p, ccl, r := env.Proc(), env.CCLComm(), env.WorldRank()
		s0, s1 := env.DefaultStream(), env.NewStream("side")
		right, left := (r+1)%n, (r+n-1)%n
		red := gpu.AllocBuffer[float64](env.Device(), elems)
		out, in0, in1 := gpu.AllocBuffer[float64](env.Device(), elems), gpu.AllocBuffer[float64](env.Device(), elems), gpu.AllocBuffer[float64](env.Device(), elems)
		for i := range out.Data() {
			red.Data()[i] = float64(r + 1)
			out.Data()[i] = float64(100*r + i)
		}
		for it := 0; it < 2; it++ {
			ccl.GroupStart()
			ccl.Send(p, s0, out.Whole(), right)
			ccl.AllReduce(p, s0, red.Whole(), red.Whole(), gpu.ReduceSum)
			ccl.Recv(p, s0, in0.Whole(), left)
			ccl.Recv(p, s1, in1.Whole(), right)
			ccl.Send(p, s1, out.Whole(), left)
			ccl.GroupEnd(p, s0)
			s0.Synchronize(p)
			s1.Synchronize(p)
		}
		ends[r] = p.Now()
		sums[r] = red.Data()[1] + in0.Data()[2] + in1.Data()[3]
	})
	if err != nil {
		t.Fatalf("mixed group: %v", err)
	}
	h := sha256.New()
	for r := range ends {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], uint64(ends[r]))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(sums[r]))
		h.Write(b[:])
	}
	return fmt.Sprintf("end=%d ranks=%x %s", ends[0], h.Sum(nil)[:8], spanDigest(log))
}

// pinnedAnswers computes every pinned line, "<key> <value>", in file order.
func pinnedAnswers(t *testing.T) []string {
	var lines []string
	for _, g := range pinGrid() {
		for _, size := range pinSizes {
			g.Bytes = size
			body, _, err := EvalSpec(g, EvalOptions{})
			if err != nil {
				t.Fatalf("%s: %v", g, err)
			}
			lines = append(lines, fmt.Sprintf("%s/%d %x", coldCellName(g), size, sha256.Sum256(body)))
		}
	}
	m := machine.Perlmutter()
	mat := sparse.Serena().Generate(0.002)
	const jacobiIters, cgIters = 4, 5
	for _, v := range Variants(Libs(m, false)) {
		jl, cl := trace.New(), trace.New()
		total, rep, err := runSpec(v.Spec(spec.Spec{Workload: spec.WorkloadJacobi, Machine: m.Name, Ranks: 8,
			NX: 256, NY: 256, Iters: jacobiIters, Warmup: 1}), &collector{log: jl})
		if err != nil {
			t.Fatalf("jacobi %s%s: %v", v.net, v.Impl(), err)
		}
		jt := sim.Duration(total)
		lines = append(lines, fmt.Sprintf("jacobi/%s%s per_iter=%d total=%d end=%d %s", v.net, v.Impl(), jt/jacobiIters, jt, rep.End, spanDigest(jl)))
		cr, err := cgRun(v.Spec(spec.Spec{Workload: spec.WorkloadCG, Machine: m.Name, Ranks: 8, Iters: cgIters}), mat, false, cl)
		if err != nil {
			t.Fatalf("cg %s%s: %v", v.net, v.Impl(), err)
		}
		lines = append(lines, fmt.Sprintf("cg/%s%s per_iter=%d total=%d end=%d %s", v.net, v.Impl(), cr.Total/cgIters, cr.Total, cr.End, spanDigest(cl)))
	}
	return append(lines, "gpuccl-mixed-group "+pinMixedGroup(t))
}

// TestPinnedAnswers replays testdata/p2p_pins.golden byte for byte: the
// SHA-256 of the EvalSpec body of the 32-cell point-to-point grid at four
// sizes, the timed and end virtual times plus span digest of Jacobi and CG on
// all eight native/Uniconn variants, and the mixed GPUCCL group. The file was
// captured at 4b4a797, before GPUCCL point-to-point became message-driven.
func TestPinnedAnswers(t *testing.T) {
	path := filepath.Join("testdata", "p2p_pins.golden")
	got := []byte(strings.Join(pinnedAnswers(t), "\n") + "\n")
	if *updatePins {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d pinned lines, want %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("pin drifted:\n got  %s\n want %s", gl[i], wl[i])
		}
	}
}
