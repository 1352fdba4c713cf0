// uniconn-scale prints the rank-scaling curves: one allreduce cell per
// (topology, algorithm, rank count), timed in virtual time, comparing the
// flat single-hop network against fat-tree and dragonfly switch fabrics and
// the flat-ring allreduce against the hierarchical (SMP-aware) algorithm.
// The wall-clock column is informational; the wall-clock record of these
// cells is the benchmark's coll-ring-256r workload (benchmark/README.md).
//
// The flat-ring curve is capped separately (-ring-max-ranks, default 1024):
// the ring's 2(n-1) serialized steps make its wall-clock cost quadratic in
// total messages at 4096 ranks, while its virtual-time trend is already
// decided by 1024.
//
// -live serves the live telemetry endpoints (/metrics /healthz /debug/runs
// /debug/flight) — useful because the big cells take minutes of wall clock
// and /debug/runs carries an ETA; with it a SIGINT prints the sweep progress
// and accumulated metrics to stderr before exiting (every finished curve
// point is already on stdout).
//
// Usage:
//
//	uniconn-scale                                  # 64..4096
//	uniconn-scale -bytes 262144 -max-ranks 1024
//	uniconn-scale -live 127.0.0.1:9187
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/spec"
)

// kindLabel is the short curve label of a topology ("flat", "fattree",
// "dragonfly"); the table prints the resolved description (fattree(k=8),
// ...) once a run has sized the fabric.
func kindLabel(tc fabric.TopologyConfig) string {
	switch tc.Kind {
	case fabric.TopoFatTree:
		return "fattree"
	case fabric.TopoDragonfly:
		return "dragonfly"
	default:
		return "flat"
	}
}

func main() {
	common := spec.Common(flag.CommandLine)
	bytes := flag.Int64("bytes", 64<<10, "allreduce vector size per rank (multiple of 8)")
	iters := flag.Int("iters", 2, "timed iterations per cell")
	maxRanks := flag.Int("max-ranks", 4096, "largest rank count of the sweep")
	ringMax := flag.Int("ring-max-ranks", 1024, "largest rank count of the flat-ring curve")
	topoFlag := spec.TopologyListFlag(flag.CommandLine, "flat,fattree,dragonfly")
	flag.Parse()

	// The rank ramp starts at 64; a smaller cap would sweep nothing.
	if *maxRanks < 64 || *ringMax < 64 || *iters < 1 {
		log.Fatalf("need -max-ranks >= 64, -ring-max-ranks >= 64 and -iters >= 1 (got %d, %d, %d)",
			*maxRanks, *ringMax, *iters)
	}
	common.ApplyEnv()
	m, err := common.Model()
	if err != nil {
		log.Fatal(err)
	}
	topologies, err := spec.ParseTopologyList(*topoFlag)
	if err != nil {
		log.Fatal(err)
	}
	shards := common.Shards

	var ranks []int
	for r := 64; r <= *maxRanks; r *= 4 {
		ranks = append(ranks, r)
	}

	type curveSpec struct {
		label string
		topo  fabric.TopologyConfig
		alg   mpi.AllreduceAlg
		cap   int
	}
	// Hierarchical curves for every selected topology, then ring curves for
	// the flat/fat-tree ones (the ring maps poorly onto dragonfly groups and
	// its trend is already fixed by the cheaper fabrics). The default list
	// reproduces the classic five-curve sweep.
	var specs []curveSpec
	for _, tc := range topologies {
		specs = append(specs, curveSpec{kindLabel(tc), tc, mpi.AlgHierarchical, *maxRanks})
	}
	for _, tc := range topologies {
		if tc.Kind != fabric.TopoDragonfly {
			specs = append(specs, curveSpec{kindLabel(tc), tc, mpi.AlgRing, *ringMax})
		}
	}

	// The scale sweep runs serially (one engine already saturates the host
	// with -shards), so the live run is reported cell by cell by this loop
	// rather than through the bench runner.
	live, closeLive, err := bench.StartLive(*common.Live, "scale")
	if err != nil {
		log.Fatal(err)
	}
	defer closeLive()
	totalCells := 0
	for _, sp := range specs {
		for _, r := range ranks {
			if r <= sp.cap {
				totalCells++
			}
		}
	}
	lr := live.StartRun("scale", totalCells, 1)

	fmt.Printf("allreduce scaling on %s, %s per rank, %d iters, shards=%d\n",
		m.Name, bench.HumanBytes(*bytes), *iters, *shards)
	fmt.Printf("%-11s%-14s%8s%8s%14s%12s\n", "topology", "alg", "ranks", "nodes", "per-iter", "wall s")
	cellIdx := 0
	for _, sp := range specs {
		for _, r := range ranks {
			if r > sp.cap {
				continue
			}
			lr.CellStart(0, cellIdx, fmt.Sprintf("%s/%s/%d", sp.label, sp.alg, r))
			cfg := bench.ScaleConfig{
				Model: m, Topology: sp.topo, Ranks: r, Bytes: *bytes,
				Alg: sp.alg, Iters: *iters, Warmup: 1, Shards: *shards,
			}
			if live != nil {
				cfg.Metrics = metrics.New()
			}
			start := time.Now()
			d, run, err := bench.ScaleAllreduce(cfg)
			if err != nil {
				log.Fatalf("%s/%s ranks=%d: %v", sp.label, sp.alg, r, err)
			}
			if live != nil {
				live.AddSnapshot(cfg.Metrics.Snapshot())
			}
			lr.CellDone(0, cellIdx)
			cellIdx++
			fmt.Printf("%-11s%-14s%8d%8d%14s%12.1f\n",
				run.Topology.Describe(), sp.alg, r, m.NodesFor(r), d.String(), time.Since(start).Seconds())
		}
	}
	lr.End()
}
