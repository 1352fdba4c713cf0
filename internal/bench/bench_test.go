package bench

import (
	"flag"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/spec"
)

func TestSizesRejectsNonPositiveMin(t *testing.T) {
	// Sizes(0, max) used to loop forever (0*2 == 0) and a negative min
	// spun through negative sizes; both must panic with a clear message.
	for _, min := range []int64{0, -8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("Sizes(%d, 64) did not panic", min)
					return
				}
				if !strings.Contains(r.(string), "minBytes") {
					t.Errorf("Sizes(%d, 64) panic message %q lacks diagnosis", min, r)
				}
			}()
			Sizes(min, 64)
		}()
	}
}

func TestSizesStopsAtOverflow(t *testing.T) {
	s := Sizes(1<<62, math.MaxInt64)
	if len(s) != 1 || s[0] != 1<<62 {
		t.Fatalf("overflowing sweep = %v", s)
	}
}

// FuzzSizeSweep parses -min A -max B the way netbench and prof do
// (spec.Common, Sizes, Resolve): either the flags or Resolve refuse them, or
// bench.Sizes returns, without panicking, a non-empty doubling ladder that
// starts at -min and stays within [-min, -max]. Seeds: every bound the
// goldens, README and CI use, plus the edges.
func FuzzSizeSweep(f *testing.F) {
	for _, b := range [][2]string{
		{"8", "4194304"}, {"8", "4096"}, {"8", "65536"}, {"8", "64"}, {"8", "8"},
		{"8", "16777216"}, {"8", "67108864"}, {"8", "2147483648"}, {"0", "4096"},
		{"12", "4194304"}, {"64", "8"}, {"-1", "8"}, {"8", "-1"}, {"0", "0"},
		{"4611686018427387904", "9223372036854775807"}, {"1", "9223372036854775807"},
		{"9223372036854775807", "9223372036854775807"}, {"3", "4611686018427387904"},
	} {
		f.Add(b[0], b[1])
	}
	f.Fuzz(func(t *testing.T, minArg, maxArg string) {
		fs := flag.NewFlagSet("sizes", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		common := spec.Common(fs)
		common.Sizes(fs, 4<<20, "")
		if fs.Parse([]string{"-min", minArg, "-max", maxArg}) != nil {
			return
		}
		if _, err := common.Resolve(); err != nil {
			return
		}
		lo, hi := common.MinSize, common.MaxSize
		sizes := Sizes(lo, hi)
		if len(sizes) == 0 || sizes[0] != lo {
			t.Fatalf("Sizes(%d, %d) = %v: want a sweep starting at -min", lo, hi, sizes)
		}
		for i, s := range sizes {
			if s < lo || s > hi || (i > 0 && s != 2*sizes[i-1]) {
				t.Fatalf("Sizes(%d, %d) = %v: step %d leaves the doubling ladder in [-min, -max]", lo, hi, sizes, i)
			}
		}
	})
}

func TestPercentDiff(t *testing.T) {
	if got := percentDiff(102, 100); math.Abs(got-2) > 1e-12 {
		t.Fatalf("diff = %v", got)
	}
	if got := percentDiff(5, 0); !math.IsInf(got, 1) {
		t.Fatalf("percentDiff(5, 0) = %v, want +Inf", got)
	}
	if got := percentDiff(-5, 0); !math.IsInf(got, -1) {
		t.Fatalf("percentDiff(-5, 0) = %v, want -Inf", got)
	}
	if got := percentDiff(0, 0); !math.IsNaN(got) {
		t.Fatalf("percentDiff(0, 0) = %v, want NaN", got)
	}
}

func TestPct(t *testing.T) {
	if got := pct(2.5); got != "2.50%" {
		t.Fatalf("pct(2.5) = %q", got)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := pct(v); got != "n/a" {
			t.Fatalf("pct(%v) = %q, want n/a", v, got)
		}
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		b    int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{1024, "1KiB"},
		{1536, "1.5KiB"},
		{2048, "2KiB"},
		{1 << 20, "1MiB"},
		{3 << 19, "1.5MiB"},
		{1 << 30, "1GiB"},
		{5 << 28, "1.2GiB"},
		{-1536, "-1.5KiB"},
		{-512, "-512B"},
		{math.MinInt64, "-8589934592GiB"},
		// Rounded values keep the decimal (distinguishing them from exact
		// integer multiples), and rounding that reaches the radix carries
		// into the next unit instead of printing "1024.0KiB".
		{2047, "2.0KiB"},
		{1<<20 - 1, "1.0MiB"},
		{1<<30 - 1, "1.0GiB"},
		{1<<20 - 51, "1.0MiB"},    // 1023.95015KiB rounds to the radix -> carry
		{1<<20 - 52, "1023.9KiB"}, // 1023.94921KiB rounds below it -> stays

		{-(1<<20 - 1), "-1.0MiB"},
	}
	for _, c := range cases {
		if got := HumanBytes(c.b); got != c.want {
			t.Errorf("HumanBytes(%d) = %q, want %q", c.b, got, c.want)
		}
	}
}

func TestSizes(t *testing.T) {
	s := Sizes(8, 64)
	want := []int64{8, 16, 32, 64}
	if len(s) != len(want) {
		t.Fatalf("sizes = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("sizes = %v", s)
		}
	}
}

// allNetConfigs enumerates every runnable benchmark configuration on a
// machine.
func allNetConfigs(m *machine.Model, bytes int64) []NetConfig {
	var out []NetConfig
	for _, lib := range Libs(m, false) {
		for _, native := range []bool{true, false} {
			for _, inter := range []bool{false, true} {
				out = append(out, NetConfig{
					Model: m, Backend: lib.Backend, API: lib.API,
					Native: native, Inter: inter, Bytes: bytes,
					Iters: 20, Warmup: 2, window: 8,
				})
			}
		}
	}
	return out
}

func TestLatencyAllConfigsPositive(t *testing.T) {
	for _, m := range machine.All() {
		for _, cfg := range allNetConfigs(m, 64) {
			l, _, err := LatencyRun(cfg)
			if err != nil {
				t.Fatalf("%s %v/%v native=%v inter=%v: %v",
					m.Name, cfg.Backend, cfg.API, cfg.Native, cfg.Inter, err)
			}
			if l <= 0 || l > sim.Second {
				t.Fatalf("%s %v/%v: latency %v out of range", m.Name, cfg.Backend, cfg.API, l)
			}
		}
	}
}

func TestBandwidthAllConfigsPositive(t *testing.T) {
	for _, m := range machine.All() {
		for _, cfg := range allNetConfigs(m, 1<<20) {
			bw, _, err := bandwidthRun(cfg)
			if err != nil {
				t.Fatalf("%s %v/%v: %v", m.Name, cfg.Backend, cfg.API, err)
			}
			wire := m.IntraWireBW
			if cfg.Inter {
				wire = m.NICWireBW
			}
			if bw <= 0 || bw > wire {
				t.Fatalf("%s %v/%v inter=%v: bandwidth %.2f GB/s vs wire %.2f",
					m.Name, cfg.Backend, cfg.API, cfg.Inter, bw/1e9, wire/1e9)
			}
		}
	}
}

func TestPaperShapeSmallMessageLatencyOrdering(t *testing.T) {
	// §II-C / Fig. 2: at small sizes, MPI beats GPUCCL (kernel launch) on
	// the host side, and GPUSHMEM device-initiated beats both.
	m := machine.Perlmutter()
	lat := func(b core.BackendID, api machine.API) sim.Duration {
		l, _, err := LatencyRun(NetConfig{Model: m, Backend: b, API: api, Native: true,
			Bytes: 64, Iters: 50, Warmup: 5})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	mpiL := lat(core.MPIBackend, machine.APIHost)
	cclL := lat(core.GpucclBackend, machine.APIHost)
	devL := lat(core.GpushmemBackend, machine.APIDevice)
	if !(devL < mpiL && mpiL < cclL) {
		t.Fatalf("expected device < MPI < GPUCCL, got dev=%v mpi=%v ccl=%v", devL, mpiL, cclL)
	}
}

func TestPaperShapeLargeMessageBandwidthOrdering(t *testing.T) {
	// Fig. 2: at large sizes intra-node, GPUCCL achieves the highest
	// bandwidth.
	m := machine.Perlmutter()
	bw := func(b core.BackendID, api machine.API) float64 {
		v, _, err := bandwidthRun(NetConfig{Model: m, Backend: b, API: api, Native: true,
			Bytes: 4 << 20, Iters: 5, Warmup: 1, window: 16})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	mpiB := bw(core.MPIBackend, machine.APIHost)
	cclB := bw(core.GpucclBackend, machine.APIHost)
	if cclB <= mpiB {
		t.Fatalf("expected GPUCCL bandwidth above MPI at 4MiB: ccl=%.1f mpi=%.1f GB/s",
			cclB/1e9, mpiB/1e9)
	}
}

func TestUniconnNetOverheadBounds(t *testing.T) {
	// §VI-B: host-API overhead bounded (~7% worst intra, small messages);
	// device-API overhead near zero.
	m := machine.Perlmutter()
	for _, lib := range Libs(m, false) {
		for _, bytes := range []int64{64, 1 << 20} {
			cfg := NetConfig{Model: m, Backend: lib.Backend, API: lib.API,
				Bytes: bytes, Iters: 50, Warmup: 5}
			cfg.Native = true
			nat, _, err := LatencyRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Native = false
			uc, _, err := LatencyRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			over := percentDiff(uc, nat)
			limit := 10.0
			if lib.API == machine.APIDevice {
				limit = 0.5
			}
			if over > limit || over < -limit {
				t.Errorf("%s %dB: UNICONN latency overhead %.2f%% (limit %.1f%%)",
					lib.net, bytes, over, limit)
			}
		}
	}
}

func TestEagerKneeVisible(t *testing.T) {
	// The MPI latency curve must show the eager→rendezvous protocol switch
	// at 8 KiB (ablation A3).
	m := machine.Perlmutter()
	lat := func(bytes int64) sim.Duration {
		l, _, err := LatencyRun(NetConfig{Model: m, Backend: core.MPIBackend, API: machine.APIHost,
			Native: true, Bytes: bytes, Iters: 50, Warmup: 5})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	below := lat(8 << 10)
	above := lat(16 << 10)
	jump := float64(above-below) / float64(below)
	if jump < 0.3 {
		t.Fatalf("no visible rendezvous knee: 8KiB=%v 16KiB=%v (jump %.2f)", below, above, jump)
	}
}

func TestTable1Renders(t *testing.T) {
	s := Table1()
	for _, want := range []string{"Perlmutter", "LUMI", "MareNostrum5", "A100", "MI250X", "H100"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2CountsThisRepo(t *testing.T) {
	s, err := Table2("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MPI", "GPUCCL", "GPUSHMEM_Host", "GPUSHMEM_Device", "Uniconn"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table2 missing %q:\n%s", want, s)
		}
	}
}

func TestFigureRender(t *testing.T) {
	long := "GPUSHMEM-Device:Uniconn" // 23 characters: wider than a column
	f := Figure{id: "FigX", title: "demo", xLabel: "bytes", yLabel: "us",
		series: []series{
			{label: "a", x: []float64{1, 2}, y: []float64{3, 4}},
			{label: long, x: []float64{1, 2}, y: []float64{5}},
			{label: "GPUSHMEM-Host:Uniconn", x: []float64{1, 2}, y: []float64{7, 8}},
		},
		notes: []string{"hello"}}
	out := f.Render()
	for _, want := range []string{"FigX", "demo", "bytes", "hello", "3", "4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// A label never fuses with its neighbour, and every value ends in the
	// column of its label; a column whose label fits is 22 wide.
	lines := strings.Split(out, "\n")
	header, row1, row2 := lines[1], lines[2], lines[3]
	if got := strings.Fields(header); strings.Join(got, " ") != "bytes a "+long+" GPUSHMEM-Host:Uniconn" {
		t.Fatalf("header fields = %q:\n%s", got, out)
	}
	ends := []int{12 + 22, 12 + 22 + len(long) + 1, 12 + 22 + len(long) + 1 + 22}
	for _, l := range []string{header, row1, row2} {
		if len(l) != ends[2] {
			t.Fatalf("line %q is %d wide, want %d:\n%s", l, len(l), ends[2], out)
		}
	}
	for k, want := range [][3]string{{"a", "3", "4"}, {long, "5", "-"}, {"GPUSHMEM-Host:Uniconn", "7", "8"}} {
		for j, l := range []string{header, row1, row2} {
			if !strings.HasSuffix(l[:ends[k]], " "+want[j]) {
				t.Errorf("column %d of %q does not end in %q:\n%s", k, l, want[j], out)
			}
		}
	}
}
