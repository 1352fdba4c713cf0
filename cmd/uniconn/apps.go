package main

import (
	"fmt"
	"io"
	"math"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/spec"
)

// jacobiCmd runs the paper's Jacobi 2D scaling experiment (§VI-C) for one
// machine, comparing the native and UNICONN implementations of every
// supported backend at a given GPU count, or sweeping GPU counts.
//
// Usage:
//
//	uniconn jacobi                                # 8 GPUs on Perlmutter
//	uniconn jacobi -machine LUMI -gpus 64 -ny 16384 -iters 1000
//	uniconn jacobi -sweep                         # 4..64 GPUs
func jacobiCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("jacobi", stderr)
	common := spec.MachineOnly(fs)
	gpus := fs.Int("gpus", 8, "GPU count")
	nx := fs.Int("nx", 1<<12, "grid width")
	ny := fs.Int("ny", 1<<12, "grid height")
	iters := fs.Int("iters", 100, "timed iterations")
	warmup := fs.Int("warmup", 10, "warm-up iterations")
	compute := fs.Bool("compute", false, "execute the functional payload (verifiable, slower)")
	sweep := fs.Bool("sweep", false, "sweep GPU counts 4..64 (Fig. 5)")
	tracePath := fs.String("trace", "", "write a Chrome trace of the LAST run to this file")
	if err := parse(fs, args); err != nil {
		return err
	}
	m, err := common.Resolve()
	if err != nil {
		return err
	}

	counts := []int{*gpus}
	if *sweep {
		counts = []int{4, 8, 16, 32, 64}
	}
	cols := bench.Variants(bench.Libs(m, true))
	base := common.Spec()
	base.Workload, base.NX, base.NY, base.Iters, base.Warmup, base.Compute =
		spec.WorkloadJacobi, *nx, *ny, *iters, *warmup, *compute
	cells := bench.Cells(base, counts, cols)
	// With -trace the last cell runs on its own, recording its spans.
	traced := len(cells)
	if *tracePath != "" {
		traced--
	}
	totals, _, err := bench.SweepSpecs(nil, cells[:traced])
	var last []bench.CellProfile
	if err == nil && traced < len(cells) {
		var total []float64
		total, last, err = bench.SweepSpecs(bench.NewObserve(nil, true), cells[traced:])
		totals = append(totals, total...)
	}

	// On failure the table stops at the failing cell, as a serial run would.
	fmt.Fprintf(stdout, "Jacobi 2D %dx%d on %s, %d iterations (+%d warm-up), per-iteration time (us)\n",
		*nx, *ny, m.Name, *iters, *warmup)
	fmt.Fprintf(stdout, "%-6s", "GPUs")
	for _, v := range cols {
		fmt.Fprintf(stdout, "%18s", v.CLI+v.Impl())
	}
	fmt.Fprintln(stdout)
	for i, total := range totals {
		if i%len(cols) == 0 {
			fmt.Fprintf(stdout, "%-6d", counts[i/len(cols)])
		}
		fmt.Fprintf(stdout, "%18.2f", (sim.Duration(total) / sim.Duration(*iters)).Micros())
		if i%len(cols) == len(cols)-1 {
			fmt.Fprintln(stdout)
		}
	}
	if err != nil {
		return err
	}
	if len(last) > 0 {
		spans := last[0].Spans()
		if err := writeFile(*tracePath, spans.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d spans to %s (open with chrome://tracing)\n", spans.Len(), *tracePath)
		fmt.Fprintln(stdout, spans.Summarize().Render())
	}
	return nil
}

// cgCmd runs the paper's Conjugate Gradient experiment (§VI-D) on a
// Serena-like or Queen_4147-like synthetic SPD matrix, comparing native and
// UNICONN implementations (and optionally the no-Allgatherv ablation that
// isolates the MPI collective bottleneck).
//
// Usage:
//
//	uniconn cg                                    # Serena-like, 8 GPUs
//	uniconn cg -matrix queen -machine LUMI
//	uniconn cg -scale 1.0 -iters 10000            # paper sizing: 1.5 s, 245 MiB (phantom matrix)
//	uniconn cg -no-allgatherv                     # the §VI-D ablation
func cgCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("cg", stderr)
	common := spec.MachineOnly(fs)
	matrixName := fs.String("matrix", "serena", "serena|queen|laplace")
	gpus := fs.Int("gpus", 8, "GPU count")
	scale := fs.Float64("scale", 0.05, "matrix scale factor (1.0 = paper size)")
	iters := fs.Int("iters", 100, "CG iterations")
	noAg := fs.Bool("no-allgatherv", false, "disable the SpMV exchange (ablation)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		return badUsage(fs, "-scale %g: the matrix scale factor must be positive and finite", *scale)
	}
	m, err := common.Resolve()
	if err != nil {
		return err
	}
	base := common.Spec()
	base.Workload, base.Ranks, base.Matrix, base.Iters, base.NoAllgatherv =
		spec.WorkloadCG, *gpus, *matrixName, *iters, *noAg
	if *matrixName != spec.MatrixLaplace {
		base.Scale = *scale
	}
	mat, err := bench.Matrix(base)
	if err != nil {
		return err
	}

	cols := bench.Variants(bench.Libs(m, false))
	totals, _, err := bench.SweepSpecs(nil, bench.Cells(base, []int{*gpus}, cols))
	// On failure the table stops at the failing row, as a serial run would.
	fmt.Fprintf(stdout, "CG on %s: %d rows, %d nnz, %d GPUs, %d iterations (no-allgatherv=%v)\n",
		m.Name, mat.Rows, mat.NNZ(), *gpus, *iters, *noAg)
	fmt.Fprintf(stdout, "%-18s %14s %14s\n", "variant", "total (ms)", "per-iter (us)")
	for i, total := range totals {
		d := sim.Duration(total)
		fmt.Fprintf(stdout, "%-18s %14.3f %14.2f\n", cols[i].CLI+cols[i].Impl(),
			float64(d)/float64(sim.Millisecond), (d / sim.Duration(*iters)).Micros())
	}
	return err
}
