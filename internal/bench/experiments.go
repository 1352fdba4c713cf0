package bench

import (
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/sloc"
	"repro/internal/solver/cg"
	"repro/internal/solver/jacobi"
	"repro/internal/sparse"
	"repro/internal/spec"
)

// Experiment runners regenerating every figure and table of the paper's
// evaluation (§VI). Each returns a Figure with one series per line of the
// original plot plus summary notes carrying the headline numbers the text
// reports (average overheads, who wins where).

// Scale selects the experiment sizing. Quick keeps runs in seconds;
// Paper uses the publication sizes (2^14×2^14 Jacobi grids, full-scale
// Serena/Queen-like matrices, full sweeps) and can take many minutes.
type Scale int

// The two sizing profiles.
const (
	Quick Scale = iota
	Paper
)

// Figure is one reproduced plot.
type Figure struct {
	id     string
	title  string
	xLabel string
	yLabel string
	series []series
	notes  []string
}

// series is one line of a plot.
type series struct {
	label string
	x     []float64
	y     []float64
}

// Render formats the figure as an aligned text table (x down, one column
// per series).
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.id, f.title)
	if len(f.series) > 0 {
		// A column is 22 wide, or wider by what its label needs to keep
		// one space from its left neighbour.
		width := func(s series) int { return max(22, len(s.label)+1) }
		fmt.Fprintf(&b, "%-12s", f.xLabel)
		for _, s := range f.series {
			fmt.Fprintf(&b, "%*s", width(s), s.label)
		}
		b.WriteString("\n")
		for i := range f.series[0].x {
			fmt.Fprintf(&b, "%-12g", f.series[0].x[i])
			for _, s := range f.series {
				if i < len(s.y) {
					fmt.Fprintf(&b, "%*.4g", width(s), s.y[i])
				} else {
					fmt.Fprintf(&b, "%*s", width(s), "-")
				}
			}
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "(y: %s)\n", f.yLabel)
	}
	for _, n := range f.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// netSizes returns the sweep sizes for the network figures.
func netSizes(sc Scale) []int64 {
	if sc == Paper {
		return Sizes(8, 64<<20)
	}
	return Sizes(8, 4<<20)
}

// netPanel is one latency/bandwidth figure pair of Figs. 2-4: the columns of
// one machine and placement over the size sweep.
type netPanel struct {
	m     *machine.Model
	inter bool
	cols  []Variant
}

// panelSpecs lays out every (panel, column, size) point of Figs. 2-4 as a
// latency and a bandwidth cell, panel-major and column-major within a panel,
// so one SweepSpecs call fans the figure out and each column owns the next
// 2*len(sizes) values.
func panelSpecs(panels []netPanel, sizes []int64) []spec.Spec {
	var specs []spec.Spec
	for _, p := range panels {
		for _, v := range p.cols {
			for _, size := range sizes {
				s := v.Spec(spec.Spec{Workload: spec.WorkloadNetLatency, Machine: p.m.Name, Inter: p.inter, Bytes: size})
				specs = append(specs, s)
				s.Workload = spec.WorkloadNetBandwidth
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// netFigures starts a panel's latency and bandwidth figures.
func netFigures(id, latTitle, bwTitle string, p netPanel) (lat, bw Figure) {
	where := fmt.Sprintf(", %s, %s", p.m.Name, Placement(p.inter))
	lat = Figure{id: id, title: latTitle + where, xLabel: "bytes", yLabel: "one-way latency (us)"}
	bw = Figure{id: id, title: bwTitle + where, xLabel: "bytes", yLabel: "bandwidth (GB/s)"}
	return lat, bw
}

// netSeries renders one column's values — per size, the latency (ns) then
// the bandwidth (B/s) — as its latency (us) and bandwidth (GB/s) series.
func netSeries(label string, sizes []int64, vals []float64) (lat, bw series) {
	lat.label, bw.label = label, label
	for i, size := range sizes {
		x := float64(size)
		lat.x, lat.y = append(lat.x, x), append(lat.y, sim.Duration(vals[2*i]).Micros())
		bw.x, bw.y = append(bw.x, x), append(bw.y, vals[2*i+1]/1e9)
	}
	return lat, bw
}

// RunFig2 reproduces the motivation benchmark (Fig. 2): native-library
// latency and bandwidth, intra- and inter-node, on Perlmutter and LUMI, one
// line per library (GPUSHMEM by its device API only).
func RunFig2(sc Scale) ([]Figure, error) {
	sizes := netSizes(sc)
	var panels []netPanel
	for _, m := range []*machine.Model{machine.Perlmutter(), machine.LUMI()} {
		var cols []Variant
		for _, l := range Libs(m, false) {
			if l.Backend != core.GpushmemBackend || l.API == machine.APIDevice {
				cols = append(cols, Variant{l, true})
			}
		}
		panels = append(panels, netPanel{m, false, cols}, netPanel{m, true, cols})
	}
	vals, _, err := SweepSpecs(nil, panelSpecs(panels, sizes))
	if err != nil {
		return nil, err
	}
	var figs []Figure
	for _, p := range panels {
		lat, bw := netFigures("Fig2", "Native latency", "Native bandwidth", p) // panels a-d
		for _, v := range p.cols {
			l, b := netSeries(v.net, sizes, vals)
			vals = vals[2*len(sizes):]
			lat.series, bw.series = append(lat.series, l), append(bw.series, b)
		}
		lat.notes = append(lat.notes, crossoverNote(lat))
		figs = append(figs, lat, bw)
	}
	return figs, nil
}

// crossoverNote summarises which library wins at the smallest and largest
// sizes (the "no single library wins" observation of §II-C).
func crossoverNote(f Figure) string {
	if len(f.series) < 2 || len(f.series[0].y) == 0 {
		return ""
	}
	bestAt := func(i int) string {
		best, lbl := f.series[0].y[i], f.series[0].label
		for _, s := range f.series[1:] {
			if s.y[i] < best {
				best, lbl = s.y[i], s.label
			}
		}
		return lbl
	}
	last := len(f.series[0].y) - 1
	return fmt.Sprintf("lowest latency at %gB: %s; at %gB: %s",
		f.series[0].x[0], bestAt(0), f.series[0].x[last], bestAt(last))
}

// RunFig34 reproduces Figs. 3 (intra-node) and 4 (inter-node): native vs
// UNICONN for every library on every machine, with the percent-difference
// summaries the embedded plots show.
func RunFig34(sc Scale, inter bool) ([]Figure, error) {
	id := "Fig3"
	if inter {
		id = "Fig4"
	}
	sizes := netSizes(sc)
	var panels []netPanel
	for _, m := range machine.All() {
		panels = append(panels, netPanel{m, inter, Variants(Libs(m, false))})
	}
	vals, _, err := SweepSpecs(nil, panelSpecs(panels, sizes))
	if err != nil {
		return nil, err
	}
	n := len(sizes)
	var figs []Figure
	for _, p := range panels {
		lat, bw := netFigures(id, "Latency native vs UNICONN", "Bandwidth native vs UNICONN", p)
		// Columns come in (native, UNICONN) pairs per library.
		for ci := 0; ci < len(p.cols); ci += 2 {
			lib := p.cols[ci].net
			nat, uc := vals[:2*n], vals[2*n:4*n]
			vals = vals[4*n:]
			natL, natB := netSeries(lib+":Native", sizes, nat)
			ucL, ucB := netSeries(lib+":Uniconn", sizes, uc)
			lat.series = append(lat.series, natL, ucL)
			bw.series = append(bw.series, natB, ucB)
			var sumLat, sumBw float64
			for i := 0; i < 2*n; i += 2 {
				sumLat += percentDiff(sim.Duration(uc[i]), sim.Duration(nat[i]))
				sumBw += (nat[i+1] - uc[i+1]) / nat[i+1] * 100
			}
			// pct renders "n/a" when any point had a zero reference
			// (which poisons the average with NaN/Inf) instead of a
			// bogus "0.00%".
			lat.notes = append(lat.notes, fmt.Sprintf("%s avg UNICONN latency overhead: %s",
				lib, pct(sumLat/float64(n))))
			bw.notes = append(bw.notes, fmt.Sprintf("%s avg UNICONN bandwidth loss: %s",
				lib, pct(sumBw/float64(n))))
		}
		figs = append(figs, lat, bw)
	}
	return figs, nil
}

// JacobiCells lays out one Jacobi run of base per (GPU count, column),
// count-major: the row-major order of the tables printed from the results.
func JacobiCells(base jacobi.Config, counts []int, cols []Variant) []jacobi.Config {
	cells := make([]jacobi.Config, 0, len(counts)*len(cols))
	for _, n := range counts {
		for _, v := range cols {
			c := v.jacobiConfig(base)
			c.NGPUs = n
			cells = append(cells, c)
		}
	}
	return cells
}

// RunFig5 reproduces the Jacobi scaling study (Fig. 5): per-iteration time
// for 4..64 GPUs on all three machines, native vs UNICONN per backend.
func RunFig5(sc Scale) ([]Figure, error) {
	ny := 1 << 12
	iters, warmup := 60, 10
	if sc == Paper {
		ny = 1 << 14
		iters, warmup = 1000, 100
	}
	gpuCounts := []int{4, 8, 16, 32, 64}
	xs := make([]float64, len(gpuCounts))
	for i, n := range gpuCounts {
		xs[i] = float64(n)
	}
	machines := machine.All()
	perMachine := make([][]Variant, len(machines))
	var cells []jacobi.Config
	for mi, m := range machines {
		perMachine[mi] = Variants(Libs(m, false))
		base := jacobi.Config{Model: m, NX: ny, NY: ny, Iters: iters, Warmup: warmup}
		cells = append(cells, JacobiCells(base, gpuCounts, perMachine[mi])...)
	}
	results, _, err := Sweep(nil, len(cells), func(i int, _ *Collector) (jacobi.Result, CellProfile, error) {
		res, err := jacobi.Run(cells[i])
		return res, CellProfile{}, err
	})
	if err != nil {
		return nil, err
	}
	var figs []Figure
	idx := 0
	for mi, m := range machines {
		fig := Figure{id: "Fig5", title: fmt.Sprintf("Jacobi 2D, %s (grid %d x %d)", m.Name, ny, ny),
			xLabel: "GPUs", yLabel: "time per iteration (us)"}
		cols := perMachine[mi]
		ys := make([][]float64, len(cols))
		for range gpuCounts {
			for vi := range cols {
				ys[vi] = append(ys[vi], results[idx].PerIter.Micros())
				idx++
			}
		}
		for vi, v := range cols {
			fig.series = append(fig.series, series{label: v.app + v.Impl(), x: xs, y: ys[vi]})
		}
		// Average native-vs-UNICONN difference per backend (§VI-C: <1%).
		for i := 0; i+1 < len(cols); i += 2 {
			nat, uc := ys[i], ys[i+1]
			sum := 0.0
			for j := range nat {
				sum += (uc[j] - nat[j]) / nat[j] * 100
			}
			fig.notes = append(fig.notes, fmt.Sprintf("%s avg UNICONN diff: %s",
				cols[i].app, pct(sum/float64(len(nat)))))
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// fig6Col is one bar of Fig. 6.
type fig6Col struct {
	label string
	cfg   cg.Config
}

// fig6Cols lists the bars of one Fig. 6 panel: every column of the backend
// table, with the §VI-D no-Allgatherv ablation of the host libraries' native
// versions between the host-library and the GPUSHMEM bars.
func fig6Cols(base cg.Config) []fig6Col {
	var host, ablation, shmem []fig6Col
	for _, v := range Variants(Libs(base.Model, false)) {
		c := fig6Col{v.app + v.Impl(), v.CGConfig(base)}
		if v.Backend == core.GpushmemBackend {
			shmem = append(shmem, c)
			continue
		}
		host = append(host, c)
		if v.Native {
			c.label += ":no-allgatherv"
			c.cfg.DisableAllgatherv = true
			ablation = append(ablation, c)
		}
	}
	return append(append(host, ablation...), shmem...)
}

// RunFig6 reproduces the CG study (Fig. 6): total runtime on 8 GPUs / 2
// nodes on Perlmutter and LUMI for the Serena-like and Queen-like matrices,
// plus the no-Allgatherv ablation isolating the MPI collective bottleneck.
func RunFig6(sc Scale) ([]Figure, error) {
	scale := 0.05
	iters := 30
	if sc == Paper {
		scale = 1.0
		iters = 10000
	}
	specs := []sparse.SyntheticSPDSpec{sparse.Serena(), sparse.Queen4147()}
	// Matrices are generated once per spec and shared read-only across
	// machines and variants (cg.Run only reads them), so parallel cells
	// need no per-cell copies.
	mats := make([]*sparse.CSR, len(specs))
	for i, spec := range specs {
		mats[i] = spec.Generate(scale)
	}
	machines := []*machine.Model{machine.Perlmutter(), machine.LUMI()}
	var panels [][]fig6Col
	var cells []cg.Config
	for _, m := range machines {
		for _, mat := range mats {
			cols := fig6Cols(cg.Config{Model: m, NGPUs: 8, Matrix: mat, Iters: iters})
			panels = append(panels, cols)
			for _, c := range cols {
				cells = append(cells, c.cfg)
			}
		}
	}
	runs, _, err := Sweep(nil, len(cells), func(i int, _ *Collector) (cg.Result, CellProfile, error) {
		res, err := cg.Run(cells[i])
		return res, CellProfile{}, err
	})
	if err != nil {
		return nil, err
	}
	var figs []Figure
	idx, panel := 0, 0
	for _, m := range machines {
		for si, spec := range specs {
			mat := mats[si]
			fig := Figure{
				id: "Fig6",
				title: fmt.Sprintf("CG on 8 GPUs, %s, %s (%d rows, %d nnz)",
					m.Name, spec.Name, mat.Rows, mat.NNZ()),
				xLabel: "variant", yLabel: "total time (ms)",
			}
			results := map[string]sim.Duration{}
			for i, c := range panels[panel] {
				total := runs[idx].Total
				idx++
				results[c.label] = total
				fig.series = append(fig.series, series{
					label: c.label, x: []float64{float64(i)},
					y: []float64{float64(total) / float64(sim.Millisecond)},
				})
			}
			panel++
			// Headline notes: UNICONN-vs-native diffs and the MPI anomaly.
			for _, l := range Libs(m, false) {
				fig.notes = append(fig.notes, fmt.Sprintf("%s UNICONN diff: %s",
					l.app, pct(percentDiff(results[l.app+":Uniconn"], results[l.app+":Native"]))))
			}
			fig.notes = append(fig.notes, fmt.Sprintf(
				"MPI/GPUCCL runtime ratio: %.2fx with Allgatherv, %.2fx without",
				float64(results["MPI:Native"])/float64(results["GPUCCL:Native"]),
				float64(results["MPI:Native:no-allgatherv"])/float64(results["GPUCCL:Native:no-allgatherv"])))
			figs = append(figs, fig)
		}
	}
	return figs, nil
}

// Table1 renders the machine models (Table I).
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Table I: simulated system characteristics ==\n")
	fmt.Fprintf(&b, "%-14s %-14s %5s %5s %14s %14s %10s %9s\n",
		"System", "GPU", "GPU/N", "NIC/N", "IntraBW(GB/s)", "NICBW(GB/s)", "MemBW(TB/s)", "GPUSHMEM")
	for _, m := range machine.All() {
		fmt.Fprintf(&b, "%-14s %-14s %5d %5d %14.0f %14.0f %10.2f %9v\n",
			m.Name, m.GPU.Name, m.GPUsPerNode, m.NICsPerNode,
			m.IntraWireBW/1e9, m.NICWireBW/1e9, m.GPU.MemBW/1e12, m.HasGPUSHMEM)
	}
	return b.String()
}

// Table2 recomputes the SLOC comparison (Table II) from this repository's
// own benchmark and solver sources. root is the repository root.
func Table2(root string) (string, error) {
	rows := []struct {
		name, net string
		// bodies are the suffixes of the row's rank bodies in the net file:
		// latency<suffix> and bandwidth<suffix>.
		bodies []string
		// solver is the row's file in both solver packages, counted whole
		// unless run names the one function of it that is the row's.
		solver, run string
	}{
		{"MPI", "net_mpi.go", []string{"NativeMPI"}, "native_mpi.go", ""},
		{"GPUCCL", "net_gpuccl.go", []string{"NativeCCL"}, "native_gpuccl.go", ""},
		{"GPUSHMEM_Host", "net_gpushmem.go", []string{"NativeShmemHost"}, "native_gpushmem.go", "runNativeShmemHost"},
		{"GPUSHMEM_Device", "net_gpushmem.go", []string{"NativeShmemDevice"}, "native_gpushmem.go", "runNativeShmemDevice"},
		{"Uniconn", "net_uniconn.go", []string{"UniconnHost", "UniconnDevice"}, "uniconn.go", ""},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== Table II: SLOC per experiment (this repository) ==\n")
	fmt.Fprintf(&b, "%-16s %9s %10s %9s %6s\n", "Library", "Latency", "Bandwidth", "Jacobi2D", "CG")
	for _, r := range rows {
		var vals [4]int // latency, bandwidth, jacobi, cg
		var err error
		for i, kind := range []string{"latency", "bandwidth"} {
			names := make([]string, len(r.bodies))
			for j, suffix := range r.bodies {
				names[j] = kind + suffix
			}
			if vals[i], err = sloc.CountFuncs(filepath.Join(root, "internal", "bench", r.net), names...); err != nil {
				return "", err
			}
		}
		for i, pkg := range []string{"jacobi", "cg"} {
			path := filepath.Join(root, "internal", "solver", pkg, r.solver)
			if r.run == "" {
				vals[2+i], err = sloc.CountFiles(path)
			} else {
				vals[2+i], err = sloc.CountFuncs(path, r.run)
			}
			if err != nil {
				return "", err
			}
		}
		fmt.Fprintf(&b, "%-16s %9d %10d %9d %6d\n", r.name, vals[0], vals[1], vals[2], vals[3])
	}
	b.WriteString("(Uniconn rows include both host and device API variants in one codebase,\n" +
		" mirroring the paper's observation that its SLOC is slightly higher.)\n")
	return b.String(), nil
}
