package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/spec"
)

// prof profiles one simulated workload and prints a deterministic
// performance report: per-cell critical path (longest dependency chain, with
// compute / intra-node / inter-node / blocked attribution), per-rank time
// breakdown, the rank-to-rank communication matrix, and the merged metrics
// of every subsystem (scheduler, fabric, MPI protocol, collectives, faults).
//
// Every profiled cell is a spec cell that owns a private metrics registry and
// span log, and the cells are one bench.SweepSpecs, so the report — and the
// optional metrics JSON and Chrome trace — are byte-identical at any
// GOMAXPROCS. A flag the chosen workload never reads is refused.
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
	if _, err := common.Resolve(); err != nil {
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
	if *workload == "net" {
		if rp, err = profNet(live, common.Spec(), backend, *device, *native, *inter, bench.Sizes(common.MinSize, common.MaxSize)); err != nil {
			return err
		}
	} else {
		// One UNICONN cell of the application on the backend: Jacobi on a
		// 256 x 256 grid, CG on the Serena-like matrix at scale 0.01.
		s := common.Spec()
		s.Workload, s.Backend, s.Ranks, s.Iters = *workload, *backendName, *ngpus, *iters
		impl, _ := s.Implementation()
		title := fmt.Sprintf("jacobi %s %s 256x256 on %d GPUs", s.Machine, impl, *ngpus)
		if *workload == spec.WorkloadJacobi {
			s.NX, s.NY, s.Warmup = 256, 256, 2
		} else {
			s.Matrix, s.Scale = spec.MatrixSerena, 0.01
			mat, err := bench.Matrix(s)
			if err != nil {
				return err
			}
			title = fmt.Sprintf("cg %s %s %d rows on %d GPUs", s.Machine, impl, mat.Rows, *ngpus)
		}
		_, profs, err := bench.SweepSpecs(bench.NewObserve(live, true), []spec.Spec{s})
		if err != nil {
			return err
		}
		profs[0].Label = fmt.Sprintf("%s/%dgpu", *workload, *ngpus)
		rp = &bench.RunProfile{Title: title, Cells: profs}
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
