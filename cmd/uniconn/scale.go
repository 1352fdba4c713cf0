package main

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
)

// scale prints the rank-scaling curves: one allreduce cell per (topology,
// algorithm, rank count), timed in virtual time, comparing the flat
// single-hop network against fat-tree and dragonfly switch fabrics and the
// flat-ring allreduce against the hierarchical (SMP-aware) algorithm. The
// wall-clock record of these cells is the benchmark's coll-ring-256r
// workload (benchmark/README.md).
//
// The flat-ring curve is capped separately (-ring-max-ranks, default 1024):
// the ring's 2(n-1) serialized steps make its wall-clock cost quadratic in
// total messages at 4096 ranks, while its virtual-time trend is already
// decided by 1024.
//
// Every cell is an allreduce spec, and the grid is one bench.SweepSpecs,
// GOMAXPROCS at a time (a modelled cell's vectors are phantom, so even a
// 4096-rank one is small); the table prints when the sweep returns.
//
// -live serves the live telemetry endpoints (/metrics /healthz /debug/runs
// /debug/flight) — useful because the 4096-rank cells take seconds of wall
// clock each and /debug/runs carries per-cell progress and an ETA; with it a
// SIGINT prints the sweep progress and accumulated metrics to stderr before
// exiting.
//
// Usage:
//
//	uniconn scale                                  # 64..4096
//	uniconn scale -bytes 262144 -max-ranks 1024
//	uniconn scale -live 127.0.0.1:9187
func scale(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("scale", stderr)
	common := spec.Common(fs)
	bytes := fs.Int64("bytes", 64<<10, "allreduce vector size per rank (multiple of 8)")
	iters := fs.Int("iters", 2, "timed iterations per cell")
	maxRanks := fs.Int("max-ranks", 4096, "largest rank count of the sweep")
	ringMax := fs.Int("ring-max-ranks", 1024, "largest rank count of the flat-ring curve")
	common.TopologyList(fs, "flat,fattree,dragonfly")
	if err := parse(fs, args); err != nil {
		return err
	}

	// The rank ramp starts at 64; a smaller cap would sweep nothing.
	if *maxRanks < 64 || *ringMax < 64 || *iters < 1 {
		return fmt.Errorf("need -max-ranks >= 64, -ring-max-ranks >= 64 and -iters >= 1 (got %d, %d, %d)",
			*maxRanks, *ringMax, *iters)
	}
	if *bytes < 8 || *bytes%8 != 0 {
		return fmt.Errorf("-bytes %d: the vector size must be a positive multiple of 8", *bytes)
	}
	// The largest cell must be one the spec layer admits; with the topology
	// check below, that admits every cell before any runs.
	largest := spec.Spec{Workload: spec.WorkloadAllreduce, Ranks: max(*maxRanks, *ringMax),
		Bytes: *bytes, Iters: *iters}
	if err := largest.Validate(); err != nil {
		return badUsage(fs, "-max-ranks %d, -ring-max-ranks %d: %v", *maxRanks, *ringMax, err)
	}
	m, err := common.Resolve()
	if err != nil {
		return err
	}

	var ranks []int
	for r := 64; r <= *maxRanks; r *= 4 {
		ranks = append(ranks, r)
	}
	// Every topology must hold the largest cell's nodes: refused here, before
	// any cell, not by the cell that first outgrows it.
	for _, tc := range common.Topologies {
		if _, err := fabric.ResolveTopology(tc, m.NodesFor(ranks[len(ranks)-1])); err != nil {
			return err
		}
	}

	// Hierarchical curves for every selected topology, then ring curves for
	// the flat/fat-tree ones (the ring maps poorly onto dragonfly groups and
	// its trend is already fixed by the cheaper fabrics). The default list
	// reproduces the classic five-curve sweep.
	base := common.Spec()
	base.Workload, base.Bytes, base.Iters = spec.WorkloadAllreduce, *bytes, *iters
	var specs []spec.Spec
	var nets []string // each cell's resolved network, as its row prints it
	// The topology column is 11 wide, or as wide as the longest resolved
	// network it prints plus one space.
	topoWidth := 11
	curve := func(tc fabric.TopologyConfig, alg mpi.AllreduceAlg, cap int) {
		for _, r := range ranks {
			if r <= cap {
				s := base
				s.Ranks, s.Alg, s.Topology = r, alg.String(), spec.CanonicalTopology(tc)
				specs = append(specs, s)
				resolved, _ := fabric.ResolveTopology(tc, m.NodesFor(r)) // checked above for the largest cell
				net := resolved.Describe()
				nets = append(nets, net)
				topoWidth = max(topoWidth, len(net)+1)
			}
		}
	}
	for _, tc := range common.Topologies {
		curve(tc, mpi.AlgHierarchical, *maxRanks)
	}
	for _, tc := range common.Topologies {
		if tc.Kind != fabric.TopoDragonfly {
			curve(tc, mpi.AlgRing, *ringMax)
		}
	}

	live, closeLive, err := bench.StartLive(common.Live, "scale")
	if err != nil {
		return err
	}
	defer closeLive()
	per, _, err := bench.SweepSpecs(live, specs)

	// On failure the table stops at the failing cell, as a serial run would.
	fmt.Fprintf(stdout, "allreduce scaling on %s, %s per rank, %d iters\n",
		m.Name, bench.HumanBytes(*bytes), *iters)
	fmt.Fprintf(stdout, "%-*s%-14s%8s%8s%14s\n", topoWidth, "topology", "alg", "ranks", "nodes", "per-iter")
	for i, v := range per {
		s := specs[i]
		fmt.Fprintf(stdout, "%-*s%-14s%8d%8d%14s\n", topoWidth, nets[i], s.Alg, s.Ranks, m.NodesFor(s.Ranks), sim.Duration(v))
	}
	return err
}
