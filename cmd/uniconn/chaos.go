package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/fabric"
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
		if err := spec.CheckSeverity(v); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// recoveryMode runs the hard-fault severity sweep per topology and backend
// and prints one table section per topology. The printed table carries
// virtual-time quantities only, so its bytes are identical with -live on or
// off (the golden test pins them).
// With -flight > 0 each faulted cell's flight-recorder post-mortem lands on
// stderr. Each (topology, backend) sweep reports to live's tracker, if any,
// under its own label.
func recoveryMode(stdout, stderr io.Writer, live *bench.Observe, m *machine.Model, backends []bench.Lib, severities []float64, ranks int, seed uint64, topologies []fabric.TopologyConfig, flightDepth int) error {
	// The sweep's generated plans and launched runs must agree on the
	// topology. Resolve auto-sized parameters up front so a section header
	// names the actual fabric (fattree(k=4), not k=0), and a topology too
	// small for the job is refused before the title.
	resolved := make([]fabric.TopologyConfig, len(topologies))
	for i, tc := range topologies {
		var err error
		if resolved[i], err = fabric.ResolveTopology(tc, m.NodesFor(ranks)); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "recovery sweep on %s, %d ranks, seed %d (crashes from severity 0.5, link/switch faults from 0.5-0.75)\n",
		m.Name, ranks, seed)
	for i, tc := range topologies {
		mt := spec.WithTopology(m, tc)
		fmt.Fprintf(stdout, "\ntopology %s\n", resolved[i].Describe())
		fmt.Fprintf(stdout, "%-10s%10s%9s%11s%11s%12s%11s%13s%14s%12s\n",
			"backend", "severity", "crashes", "survivors", "completed", "recoveries", "failovers", "detect lat", "recovery lat", "end")
		for _, b := range backends {
			label := b.Backend.String()
			obs := live.Named("chaos-recover " + resolved[i].Describe() + " " + label)
			for _, p := range bench.RecoverySweep(obs, mt, b.Backend, ranks, severities, seed, flightDepth) {
				done := "no"
				if p.Completed {
					done = "yes"
				}
				if p.Err != "" {
					done = "ERR"
				}
				fmt.Fprintf(stdout, "%-10s%10.2f%9d%11d%11s%12d%11d%13v%14v%12v\n",
					label, p.Severity, p.Crashes, p.Survivors, done, p.Recoveries,
					p.Failovers, p.DetectLatency, p.RecoveryLatency, sim.Duration(p.End))
				if p.Err != "" {
					fmt.Fprintf(stdout, "  %s severity %.2f error: %s\n", label, p.Severity, p.Err)
				}
				// Post-mortems are diagnostics, not results: stderr only,
				// in deterministic point order.
				if p.FlightDump != "" {
					fmt.Fprintf(stderr, "post-mortem %s/%s severity %.2f:\n%s",
						resolved[i].Describe(), label, p.Severity, p.FlightDump)
				}
			}
		}
	}
	return nil
}

// chaos sweeps fault severity over the network microbenchmarks and prints
// per-backend latency/bandwidth degradation curves. The injected plans come
// from internal/faults: either a uniform degradation of the benchmarked path
// (the default) or a randomized but seed-deterministic plan of
// link faults, NIC stall windows, and slow ranks (-generate). Backends and
// severities are spec cells (bench.SweepSpecs, which validates every cell
// before any runs) fanned out as one sweep; identical flags always print
// identical numbers at any GOMAXPROCS. A flag the chosen mode never reads is
// refused.
//
// With -recover the tool switches to hard-fault mode: plans from
// faults.GenerateHard additionally crash ranks (severity >= 0.5) and kill
// links — and, on a switched -topology, an aggregation switch or global
// channel (severity >= 0.5/0.75) — under an -ranks-GPU iterative allreduce
// workload, and the sweep reports whether the survivors completed by
// revoking and shrinking the communicator, plus the failure-detection and
// recovery latencies and the adaptive-routing failover count. -topology
// accepts a comma-separated list in this mode, one table section per
// topology. The table is virtual-time only, so its bytes are the recovery
// results of record: the golden test diffs them against
// testdata/recover-<topology>.golden.
//
// -live serves the live telemetry endpoints (/metrics /healthz /debug/runs
// /debug/flight) while the sweep runs, and -flight retains a bounded
// per-cell event history that is dumped to stderr when a cell faults.
// Neither changes a byte of stdout. With -live, a SIGINT prints the sweep
// progress and accumulated metrics to stderr before exiting.
//
// Usage:
//
//	uniconn chaos                                # Perlmutter, inter-node, degrade ramp
//	uniconn chaos -machine LUMI -bytes 1048576
//	uniconn chaos -generate -seed 7 -severities 0,0.5,1
//	uniconn chaos -recover -ranks 8
//	uniconn chaos -recover -topology fattree
//	uniconn chaos -recover -topology flat,fattree,dragonfly:1,2,2
//	uniconn chaos -recover -live 127.0.0.1:9187 -flight 256
func chaos(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("chaos", stderr)
	common := spec.Common(fs)
	inter := fs.Bool("inter", true, "benchmark across two nodes")
	bytes := fs.Int64("bytes", 8192, "message size (multiple of 8)")
	sevFlag := fs.String("severities", "0,0.25,0.5,0.75,1", "comma-separated severity sweep")
	generate := fs.Bool("generate", false,
		"randomized seed-deterministic plans instead of uniform path degradation")
	seed := fs.Uint64("seed", 42, "fault-plan seed (with -generate)")
	recover := fs.Bool("recover", false,
		"recovery mode: hard-fault plans (rank crashes, dead links) under an iterative allreduce; "+
			"reports completion and recovery latency per severity")
	ranks := fs.Int("ranks", 8, "rank count of the recovery workload (with -recover)")
	showMetrics := fs.Bool("metrics", false,
		"collect per-severity metrics and print the merged snapshot per backend (degrade/generate modes)")
	profilePath := fs.String("profile", "",
		"write a Chrome trace-event file of the profiled severity cells here (degrade/generate modes)")
	common.TopologyList(fs, "flat")
	flightDepth := fs.Int("flight", 0,
		"retain the last N engine events per cell and dump them to stderr on faults (with -recover)")
	if err := parse(fs, args); err != nil {
		return err
	}
	var err error
	switch {
	case *recover:
		err = rejectUnread(fs, "chaos -recover", "inter", "bytes", "generate", "metrics", "profile")
	case *generate:
		err = rejectUnread(fs, "chaos -generate", "ranks", "flight")
	default:
		err = rejectUnread(fs, "chaos (degrade ramp)", "ranks", "flight", "seed")
	}
	if err != nil {
		return err
	}
	if *recover && *ranks < 2 {
		return badUsage(fs, "-ranks %d: the recovery workload needs at least 2 ranks", *ranks)
	}

	m, err := common.Resolve()
	if err != nil {
		return err
	}
	topologies := common.Topologies
	severities, err := parseSeverities(*sevFlag)
	if err != nil {
		return err
	}
	// Sweeps report under their mode's label; a recovery sweep names its own.
	liveLabel := "chaos-degrade"
	if *generate {
		liveLabel = "chaos-generate"
	}
	live, closeLive, err := bench.StartLive(common.Live, liveLabel)
	if err != nil {
		return err
	}
	defer closeLive()

	// One row per backend, through its host API.
	var backends []bench.Lib
	for _, l := range bench.Libs(m, false) {
		if l.API == machine.APIHost {
			backends = append(backends, l)
		}
	}

	if *recover {
		switched := false
		for _, tc := range topologies {
			if tc.Kind != fabric.TopoFlat {
				switched = true
			}
		}
		ranksSet := false
		fs.Visit(func(f *flag.Flag) {
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
		return recoveryMode(stdout, stderr, live, m, backends, severities, *ranks, *seed, topologies, *flightDepth)
	}
	if len(topologies) != 1 {
		return fmt.Errorf("topology lists are for -recover; pick one of %q", fs.Lookup("topology").Value.String())
	}

	// One latency and one bandwidth spec cell per (backend, severity),
	// backend-major: the printed row order. The latency cells always keep
	// their span log, since the transfers column counts it; the bandwidth
	// cells record only what -live asks for.
	base := common.Spec()
	base.Workload, base.Native, base.Inter, base.Bytes = spec.WorkloadNetLatency, true, *inter, *bytes
	base.FaultMode = spec.FaultDegrade
	mode := "degrade ramp"
	if *generate {
		base.FaultMode, base.Seed = spec.FaultGenerate, *seed
		mode = fmt.Sprintf("generated plan (seed %d)", *seed)
	}
	var latSpecs, bwSpecs []spec.Spec
	for _, b := range backends {
		for _, sev := range severities {
			s := bench.Variant{Lib: b, Native: true}.Spec(base)
			s.Severity = sev
			latSpecs = append(latSpecs, s)
			s.Workload = spec.WorkloadNetBandwidth
			bwSpecs = append(bwSpecs, s)
		}
	}
	lat, profs, err := bench.SweepSpecs(bench.NewObserve(live, true), latSpecs)
	if err != nil {
		return err
	}
	bw, _, err := bench.SweepSpecs(live, bwSpecs)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "chaos sweep on %s (%s), %d B, %s\n", m.Name, bench.Placement(*inter), *bytes, mode)
	fmt.Fprintf(stdout, "%-10s%10s%14s%10s%14s%10s%12s\n",
		"backend", "severity", "latency", "lat x", "bw GB/s", "bw frac", "transfers")
	// A row's ratios are to its backend's first severity, the healthy
	// baseline of a ramp from 0.
	n := len(severities)
	for bi, b := range backends {
		label := b.Backend.String()
		for j, sev := range severities {
			i, first := bi*n+j, bi*n
			fmt.Fprintf(stdout, "%-10s%10.2f%14v%9.2fx%14.2f%10.2f%12d\n",
				label, sev, sim.Duration(lat[i]), lat[i]/lat[first],
				bw[i]/1e9, bw[i]/bw[first], profs[i].Transfers())
			profs[i].Label = fmt.Sprintf("%s/severity/%g", label, sev)
		}
	}
	if *showMetrics {
		for bi, b := range backends {
			brp := bench.RunProfile{Cells: profs[bi*n : (bi+1)*n]}
			fmt.Fprintf(stdout, "\n%s merged metrics (%d severities):\n%s",
				b.Backend, n, brp.Merged().Render())
		}
	}
	return writeProfile(stdout, *profilePath, &bench.RunProfile{Cells: profs})
}
