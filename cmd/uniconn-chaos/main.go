// uniconn-chaos sweeps fault severity over the network microbenchmarks and
// prints per-backend latency/bandwidth degradation curves. The injected
// plans come from internal/faults: either a uniform degradation of the
// benchmarked path (-degrade, the default) or a randomized but
// seed-deterministic plan of link faults, NIC stall windows, and slow ranks
// (-generate). Backends and severities fan out over the deterministic
// parallel runner (internal/bench.Sweep); identical flags always print
// identical numbers at any UNICONN_WORKERS setting.
//
// With -recover the tool switches to hard-fault mode: plans from
// faults.GenerateHard additionally crash ranks (severity >= 0.5) and kill
// links — and, on a switched -topology, an aggregation switch or global
// channel (severity >= 0.5/0.75) — under an -ranks-GPU iterative allreduce
// workload, and the sweep reports whether the survivors completed by
// revoking and shrinking the communicator, plus the failure-detection and
// recovery latencies and the adaptive-routing failover count. -topology
// accepts a comma-separated list in this mode, one table section per
// topology; -shards runs the hard-fault cells on the sharded engine,
// bit-identical at every shard count >= 1. The table is virtual-time only,
// so its bytes are the recovery results of record: CI diffs them against
// testdata/recover-<topology>.golden.
//
// -live serves the live telemetry endpoints (/metrics /healthz /debug/runs
// /debug/flight) while the sweep runs, and -flight retains a bounded
// per-shard event history that is dumped to stderr when a cell faults.
// Neither changes a byte of stdout. With -live, a SIGINT prints the sweep
// progress and accumulated metrics to stderr before exiting.
//
// Usage:
//
//	uniconn-chaos                                # Perlmutter, inter-node, degrade ramp
//	uniconn-chaos -machine LUMI -bytes 1048576
//	uniconn-chaos -generate -seed 7 -severities 0,0.5,1
//	uniconn-chaos -recover -ranks 8
//	uniconn-chaos -recover -topology fattree -shards 4
//	uniconn-chaos -recover -topology flat,fattree,dragonfly:1,2,2
//	uniconn-chaos -recover -live 127.0.0.1:9187 -flight 256
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/spec"
)

func parseSeverities(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad severity %q: %w", f, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("severity %g is negative", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// backendChoice pairs a display label with a backend id.
type backendChoice struct {
	label   string
	backend core.BackendID
}

// recoveryMode runs the hard-fault severity sweep per topology and backend
// and prints one table section per topology. The printed table carries
// virtual-time quantities only, so its bytes are identical at every -shards
// count >= 1 and with -live on or off (CI compares them with cmp, and with
// diff against the committed goldens). With -flight > 0 each faulted cell's
// flight-recorder post-mortem lands on stderr.
func recoveryMode(m *machine.Model, backends []backendChoice, severities []float64, ranks int, seed uint64, topologies []fabric.TopologyConfig, flightDepth int) error {
	fmt.Printf("recovery sweep on %s, %d ranks, seed %d (crashes from severity 0.5, link/switch faults from 0.5-0.75)\n",
		m.Name, ranks, seed)
	for _, tc := range topologies {
		// The sweep's generated plans and launched runs must agree on the
		// topology. Resolve auto-sized parameters up front so the section
		// header names the actual fabric (fattree(k=4), not k=0).
		mt := spec.WithTopology(m, tc)
		resolved := fabric.ResolveTopology(tc, m.NodesFor(ranks))
		fmt.Printf("\ntopology %s\n", resolved.Describe())
		fmt.Printf("%-10s%10s%9s%11s%11s%12s%11s%13s%14s%12s\n",
			"backend", "severity", "crashes", "survivors", "completed", "recoveries", "failovers", "detect lat", "recovery lat", "end")
		for _, b := range backends {
			bench.SetProgressLabel("chaos-recover " + resolved.Describe() + " " + b.label)
			points, err := bench.RecoverySweepOpts(mt, b.backend, ranks, severities, seed,
				bench.RecoveryOpts{FlightDepth: flightDepth, Live: bench.Progress()})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", tc.Describe(), b.label, err)
			}
			for _, p := range points {
				done := "no"
				if p.Completed {
					done = "yes"
				}
				if p.Err != "" {
					done = "ERR"
				}
				fmt.Printf("%-10s%10.2f%9d%11d%11s%12d%11d%13v%14v%12v\n",
					b.label, p.Severity, p.Crashes, p.Survivors, done, p.Recoveries,
					p.Failovers, p.DetectLatency, p.RecoveryLatency, sim.Duration(p.End))
				if p.Err != "" {
					fmt.Printf("  %s severity %.2f error: %s\n", b.label, p.Severity, p.Err)
				}
				// Post-mortems are diagnostics, not results: stderr only,
				// in deterministic point order.
				if p.FlightDump != "" {
					fmt.Fprintf(os.Stderr, "post-mortem %s/%s severity %.2f:\n%s",
						resolved.Describe(), b.label, p.Severity, p.FlightDump)
				}
			}
		}
	}
	return nil
}

func main() {
	common := spec.Common(flag.CommandLine)
	inter := flag.Bool("inter", true, "benchmark across two nodes")
	bytes := flag.Int64("bytes", 8192, "message size (multiple of 8)")
	sevFlag := flag.String("severities", "0,0.25,0.5,0.75,1", "comma-separated severity sweep")
	generate := flag.Bool("generate", false,
		"randomized seed-deterministic plans instead of uniform path degradation")
	seed := flag.Uint64("seed", 42, "fault-plan seed (with -generate)")
	recover := flag.Bool("recover", false,
		"recovery mode: hard-fault plans (rank crashes, dead links) under an iterative allreduce; "+
			"reports completion and recovery latency per severity")
	ranks := flag.Int("ranks", 8, "rank count of the recovery workload (with -recover)")
	showMetrics := flag.Bool("metrics", false,
		"collect per-severity metrics and print the merged snapshot per backend (degrade/generate modes)")
	profilePath := flag.String("profile", "",
		"write a Chrome trace-event file of the profiled severity cells here (degrade/generate modes)")
	topoFlag := spec.TopologyListFlag(flag.CommandLine, "flat")
	flightDepth := flag.Int("flight", 0,
		"retain the last N engine events per shard and dump them to stderr on faults (with -recover)")
	flag.Parse()

	common.ApplyEnv()

	live, closeLive, err := bench.StartLive(*common.Live, "chaos")
	if err != nil {
		log.Fatal(err)
	}
	defer closeLive()

	m, err := common.Model()
	if err != nil {
		log.Fatal(err)
	}
	topologies, err := spec.ParseTopologyList(*topoFlag)
	if err != nil {
		log.Fatal(err)
	}
	severities, err := parseSeverities(*sevFlag)
	if err != nil {
		log.Fatal(err)
	}

	backends := []backendChoice{{"MPI", core.MPIBackend}, {"GPUCCL", core.GpucclBackend}}
	if m.HasGPUSHMEM {
		backends = append(backends, backendChoice{"GPUSHMEM", core.GpushmemBackend})
	}

	if *recover {
		switched := false
		for _, tc := range topologies {
			if tc.Kind != fabric.TopoFlat {
				switched = true
			}
		}
		ranksSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "ranks" {
				ranksSet = true
			}
		})
		if switched && !ranksSet {
			// The 8-rank default spans two nodes — too few for redundant
			// fat-tree pods or >= 3 dragonfly groups. 32 ranks on a 4-GPU
			// machine is 8 nodes: a k=4 fat-tree with spare aggregations,
			// and four dragonfly:1,2,2 groups with a Valiant escape.
			*ranks = 32
		}
		if err := recoveryMode(m, backends, severities, *ranks, *seed, topologies, *flightDepth); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(topologies) != 1 {
		log.Fatalf("topology lists are for -recover; pick one of %q", *topoFlag)
	}
	m = spec.WithTopology(m, topologies[0])

	where, mode := "intra-node", "degrade ramp"
	if *inter {
		where = "inter-node"
	}
	if *generate {
		mode = fmt.Sprintf("generated plan (seed %d)", *seed)
		bench.SetProgressLabel("chaos-generate")
	} else {
		bench.SetProgressLabel("chaos-degrade")
	}
	fmt.Printf("chaos sweep on %s (%s), %d B, %s\n", m.Name, where, *bytes, mode)
	fmt.Printf("%-10s%10s%14s%10s%14s%10s%12s\n",
		"backend", "severity", "latency", "lat x", "bw GB/s", "bw frac", "transfers")

	profiled := *showMetrics || *profilePath != ""
	// The live metrics endpoint needs per-cell registries even when no
	// -metrics/-profile output was asked for; collect silently in that case
	// (cell profiles feed the tracker and nothing else).
	collect := profiled || live != nil

	// Each backend's severity ramp is an independent cell; the ramp itself
	// fans out again inside ChaosSweep. Rendered blocks (and, when profiling,
	// the per-severity cell profiles) are collected by backend index, so the
	// output prints in the fixed backend order.
	type backendOut struct {
		block string
		profs []bench.CellProfile
	}
	blocks, err := bench.Sweep(len(backends), func(i int) (backendOut, error) {
		b := backends[i]
		cfg := bench.NetConfig{Model: m, Backend: b.backend, API: machine.APIHost,
			Native: true, Inter: *inter, Bytes: *bytes}
		var planFor func(float64) *faults.Plan
		if *generate {
			fc := cfg.Model.FabricConfig(2)
			if *inter {
				mm := *m
				mm.GPUsPerNode, mm.NICsPerNode = 1, 1
				fc = mm.FabricConfig(2)
			}
			planFor = func(s float64) *faults.Plan {
				return faults.Generate(*seed, s, fc, sim.Second)
			}
		}
		var out backendOut
		var points []bench.ChaosPoint
		var err error
		if collect {
			points, out.profs, err = bench.ChaosSweepProfiled(cfg, severities, planFor)
			for pi := range out.profs {
				out.profs[pi].Label = b.label + "/" + out.profs[pi].Label
			}
		} else {
			points, err = bench.ChaosSweep(cfg, severities, planFor)
		}
		if err != nil {
			return out, fmt.Errorf("%s: %w", b.label, err)
		}
		for _, cp := range out.profs {
			live.AddSnapshot(cp.Metrics) // nil-safe
		}
		var baseLat sim.Duration
		var baseBW float64
		if len(points) > 0 {
			baseLat, baseBW = points[0].Latency, points[0].Bandwidth
		}
		var sb strings.Builder
		for _, p := range points {
			fmt.Fprintf(&sb, "%-10s%10.2f%14v%9.2fx%14.2f%10.2f%12d\n",
				b.label, p.Severity, p.Latency, p.LatencyFactor(baseLat),
				p.Bandwidth/1e9, p.BandwidthFactor(baseBW), p.Transfers)
		}
		out.block = sb.String()
		return out, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range blocks {
		fmt.Print(b.block)
	}
	if profiled {
		var all []bench.CellProfile
		for _, b := range blocks {
			all = append(all, b.profs...)
		}
		rp := &bench.RunProfile{
			Title: fmt.Sprintf("chaos %s (%d cells)", m.Name, len(all)),
			Cells: all,
		}
		if *showMetrics {
			for bi, b := range blocks {
				brp := bench.RunProfile{Cells: b.profs}
				fmt.Printf("\n%s merged metrics (%d severities):\n%s",
					backends[bi].label, len(b.profs), brp.Merged().Render())
			}
		}
		if *profilePath != "" {
			f, err := os.Create(*profilePath)
			if err != nil {
				log.Fatal(err)
			}
			if err := rp.WriteChromeTrace(f); err != nil {
				f.Close()
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", *profilePath)
		}
	}
}
