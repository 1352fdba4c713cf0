// uniconn-prof profiles one simulated workload and prints a deterministic
// performance report: per-cell critical path (longest dependency chain, with
// compute / intra-node / inter-node / blocked attribution), per-rank time
// breakdown, the rank-to-rank communication matrix, and the merged metrics
// of every subsystem (scheduler, fabric, MPI protocol, collectives, faults).
//
// Every profiled cell owns a private metrics registry and span log, and the
// cells fan out over the deterministic sweep runner, so the report — and the
// optional metrics JSON and Chrome trace — are byte-identical at any
// -workers setting.
//
// Usage:
//
//	uniconn-prof                                    # net sweep, Perlmutter, MPI
//	uniconn-prof -workload net -backend GPUCCL -inter -min 8 -max 65536
//	uniconn-prof -workload jacobi -ngpus 8
//	uniconn-prof -workload cg -ngpus 8 -json metrics.json -trace trace.json
//	uniconn-prof -workload net -live 127.0.0.1:9187  # live progress endpoints
package main

import (
	"flag"
	"io"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/solver/cg"
	"repro/internal/solver/jacobi"
	"repro/internal/sparse"
	"repro/internal/spec"
)

func main() {
	workload := flag.String("workload", "net", "net|jacobi|cg")
	common := spec.Common(flag.CommandLine)
	backendName := flag.String("backend", "MPI", "MPI|GPUCCL|GPUSHMEM")
	device := flag.Bool("device", false, "device-initiated API (net; requires GPUSHMEM)")
	native := flag.Bool("native", false, "native library instead of UNICONN (net)")
	inter := flag.Bool("inter", false, "run across two nodes (net)")
	minSize := flag.Int64("min", 8, "smallest message of the net sweep (bytes)")
	maxSize := flag.Int64("max", 4096, "largest message of the net sweep (bytes)")
	ngpus := flag.Int("ngpus", 4, "rank count (jacobi, cg)")
	iters := flag.Int("iters", 20, "timed iterations (jacobi, cg)")
	jsonPath := flag.String("json", "", "write merged metrics JSON here")
	tracePath := flag.String("trace", "", "write Chrome trace-event JSON here")
	topoFlag := spec.TopologyFlag(flag.CommandLine)
	flag.Parse()

	common.ApplyEnv()
	m, err := common.Model()
	if err != nil {
		log.Fatal(err)
	}
	tc, err := fabric.ParseTopology(*topoFlag)
	if err != nil {
		log.Fatal(err)
	}
	m = spec.WithTopology(m, tc)
	backend, err := spec.ParseBackend(*backendName)
	if err != nil {
		log.Fatal(err)
	}
	api := machine.APIHost
	if *device {
		api = machine.APIDevice
	}

	live, closeLive, err := bench.StartLive(*common.Live, "prof-"+*workload)
	if err != nil {
		log.Fatal(err)
	}
	defer closeLive()

	var prof *bench.RunProfile
	switch *workload {
	case "net":
		prof, err = bench.ProfileNet(bench.NetConfig{
			Model: m, Backend: backend, API: api, Native: *native, Inter: *inter,
		}, bench.Sizes(*minSize, *maxSize))
	case "jacobi":
		prof, err = bench.ProfileJacobi(jacobi.Config{
			Model: m, NGPUs: *ngpus, NX: 256, NY: 256,
			Iters: *iters, Warmup: 2,
			Variant: jacobi.Uniconn, Backend: backend, Mode: core.PureHost,
		})
	case "cg":
		spec := sparse.Serena()
		prof, err = bench.ProfileCG(cg.Config{
			Model: m, NGPUs: *ngpus, Matrix: spec.Generate(0.01), Iters: *iters,
			Variant: cg.Uniconn, Backend: backend, Mode: core.PureHost,
		})
	default:
		log.Fatalf("unknown workload %q (net|jacobi|cg)", *workload)
	}
	if err != nil {
		log.Fatal(err)
	}
	live.AddSnapshot(prof.Merged()) // nil-safe

	if err := prof.WriteReport(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if *jsonPath != "" {
		if err := writeTo(*jsonPath, prof.WriteMetricsJSON); err != nil {
			log.Fatal(err)
		}
	}
	if *tracePath != "" {
		if err := writeTo(*tracePath, prof.WriteChromeTrace); err != nil {
			log.Fatal(err)
		}
	}
}

func writeTo(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
