package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/solver/cg"
	"repro/internal/solver/jacobi"
	"repro/internal/sparse"
	"repro/internal/spec"
)

// prof profiles one simulated workload and prints a deterministic
// performance report: per-cell critical path (longest dependency chain, with
// compute / intra-node / inter-node / blocked attribution), per-rank time
// breakdown, the rank-to-rank communication matrix, and the merged metrics
// of every subsystem (scheduler, fabric, MPI protocol, collectives, faults).
//
// Every profiled cell owns a private metrics registry and span log, and the
// cells are one bench.Sweep, so the report — and the optional metrics JSON
// and Chrome trace — are byte-identical at any GOMAXPROCS. The net
// workload's cells are spec cells (bench.SweepSpecs); a flag the chosen
// workload never reads is refused.
//
// Usage:
//
//	uniconn prof                                    # net sweep, Perlmutter, MPI
//	uniconn prof -workload net -backend GPUCCL -inter -min 8 -max 65536
//	uniconn prof -workload jacobi -ngpus 8
//	uniconn prof -workload cg -ngpus 8 -json metrics.json -trace trace.json
//	uniconn prof -workload net -live 127.0.0.1:9187  # live progress endpoints
func prof(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("prof", stderr)
	workload := fs.String("workload", "net", "net|jacobi|cg")
	common := spec.Common(fs)
	backendName := fs.String("backend", "MPI", "MPI|GPUCCL|GPUSHMEM")
	device := fs.Bool("device", false, "device-initiated API (net; requires GPUSHMEM)")
	native := fs.Bool("native", false, "native library instead of UNICONN (net)")
	inter := fs.Bool("inter", false, "run across two nodes (net)")
	common.Sizes(fs, 4096, " of the net sweep")
	ngpus := fs.Int("ngpus", 4, "rank count (jacobi, cg)")
	iters := fs.Int("iters", 20, "timed iterations (jacobi, cg)")
	jsonPath := fs.String("json", "", "write merged metrics JSON here")
	tracePath := fs.String("trace", "", "write Chrome trace-event JSON here")
	common.Topology(fs)
	if err := parse(fs, args); err != nil {
		return err
	}

	unread, ok := map[string][]string{
		"net":    {"ngpus", "iters"},
		"jacobi": {"native", "device", "inter", "min", "max"},
		"cg":     {"native", "device", "inter", "min", "max"},
	}[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (net|jacobi|cg)", *workload)
	}
	if err := rejectUnread(fs, "prof -workload "+*workload, unread...); err != nil {
		return err
	}
	m, err := common.Resolve()
	if err != nil {
		return err
	}
	backend, err := spec.ParseBackend(*backendName)
	if err != nil {
		return err
	}
	live, closeLive, err := bench.StartLive(common.Live, "prof-"+*workload)
	if err != nil {
		return err
	}
	defer closeLive()

	var rp *bench.RunProfile
	switch *workload {
	case "net":
		rp, err = profNet(live, common.Spec(), backend, *device, *native, *inter, bench.Sizes(common.MinSize, common.MaxSize))
	case "jacobi":
		cfg := jacobi.Config{
			Model: m, NGPUs: *ngpus, NX: 256, NY: 256, Iters: *iters, Warmup: 2,
			Variant: solver.Uniconn, Backend: backend, Mode: core.PureHost,
		}
		rp, err = profApp(live,
			fmt.Sprintf("jacobi %s %s %dx%d on %d GPUs", m.Name, cfg.Variant, cfg.NX, cfg.NY, cfg.NGPUs),
			fmt.Sprintf("jacobi/%dgpu", cfg.NGPUs), cfg.Iters,
			func(col *bench.Collector) (sim.Duration, sim.Duration, sim.Time, error) {
				cfg.Metrics, cfg.Trace = col.Metrics, col.Trace
				res, err := jacobi.Run(cfg)
				return res.PerIter, res.Total, res.End, err
			})
	case "cg":
		cfg := cg.Config{
			Model: m, NGPUs: *ngpus, Matrix: sparse.Serena().Phantom(0.01), Iters: *iters,
			Variant: solver.Uniconn, Backend: backend, Mode: core.PureHost,
		}
		rp, err = profApp(live,
			fmt.Sprintf("cg %s %s %d rows on %d GPUs", m.Name, cfg.Variant, cfg.Matrix.Rows, cfg.NGPUs),
			fmt.Sprintf("cg/%dgpu", cfg.NGPUs), cfg.Iters,
			func(col *bench.Collector) (sim.Duration, sim.Duration, sim.Time, error) {
				cfg.Metrics, cfg.Trace = col.Metrics, col.Trace
				res, err := cg.Run(cfg)
				return res.PerIter, res.Total, res.End, err
			})
	}
	if err != nil {
		return err
	}

	if err := rp.WriteReport(stdout); err != nil {
		return err
	}
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, rp.WriteMetricsJSON); err != nil {
			return err
		}
	}
	if *tracePath != "" {
		return writeFile(*tracePath, rp.WriteChromeTrace)
	}
	return nil
}

// profApp profiles one application run (Jacobi, CG) as the one cell of an
// observed sweep, reporting to live's tracker, if any. run executes it with
// the cell's registry and span log and reports the per-iteration and total
// timed durations and the run's end time.
func profApp(live *bench.Observe, title, label string, iters int,
	run func(col *bench.Collector) (perIter, total sim.Duration, end sim.Time, err error)) (*bench.RunProfile, error) {
	_, profs, err := bench.Sweep(bench.NewObserve(live, true), 1, func(_ int, col *bench.Collector) (struct{}, bench.CellProfile, error) {
		perIter, total, end, err := run(col)
		if err != nil {
			return struct{}{}, bench.CellProfile{}, err
		}
		return struct{}{}, col.Finish(label, end, fmt.Sprintf("per-iteration %s over %d iterations (total %s)",
			perIter, iters, total)), nil
	})
	if err != nil {
		return nil, err
	}
	return &bench.RunProfile{Title: title, Cells: profs}, nil
}

// profNet profiles the latency and bandwidth microbenchmarks of one
// configuration over a size sweep: two spec cells per size (latency, then
// bandwidth), each observed with its own collector and reported to live's
// tracker, if any.
func profNet(live *bench.Observe, base spec.Spec, backend core.BackendID, device, native, inter bool, sizes []int64) (*bench.RunProfile, error) {
	api := machine.APIHost
	if device {
		api = machine.APIDevice
	}
	base.Backend, base.API, base.Native, base.Inter = backend.String(), api.String(), native, inter
	var specs []spec.Spec
	for _, size := range sizes {
		base.Bytes = size
		for _, w := range []string{spec.WorkloadNetLatency, spec.WorkloadNetBandwidth} {
			base.Workload = w
			specs = append(specs, base)
		}
	}
	_, profs, err := bench.SweepSpecs(bench.NewObserve(live, true), specs)
	if err != nil {
		return nil, err
	}
	for i := range profs {
		profs[i].Label = fmt.Sprintf("%s/%dB", strings.TrimPrefix(specs[i].Workload, "net-"), specs[i].Bytes)
	}
	impl := "uniconn"
	if native {
		impl = "native"
	}
	return &bench.RunProfile{
		Title: fmt.Sprintf("net %s %s %s %s (%d sizes)", base.Machine, backend, impl, bench.Placement(inter), len(sizes)),
		Cells: profs,
	}, nil
}
