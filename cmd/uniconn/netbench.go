package main

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/spec"
)

// netbench runs the OSU-derived latency/bandwidth microbenchmarks (paper
// §VI-B) for one machine and prints a sweep table comparing native and
// UNICONN implementations of every supported (library, API) pair.
//
// The size × column grid is a set of spec cells; it fans out as one sweep
// (bench.SweepSpecs, which validates every cell before any runs), so the
// table is bit-identical at any GOMAXPROCS.
//
// -live serves the live telemetry endpoints (/metrics /healthz /debug/runs
// /debug/flight) while the sweep runs, without changing a byte of stdout;
// with it a SIGINT prints the sweep progress and accumulated metrics to
// stderr.
//
// Usage:
//
//	uniconn netbench                              # Perlmutter, intra-node
//	uniconn netbench -machine LUMI -inter
//	uniconn netbench -min 8 -max 16777216 -bw
//	uniconn netbench -live 127.0.0.1:9187
func netbench(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("netbench", stderr)
	common := spec.Common(fs)
	inter := fs.Bool("inter", false, "benchmark across two nodes")
	common.Sizes(fs, 4<<20, "")
	bw := fs.Bool("bw", false, "measure bandwidth instead of latency")
	showMetrics := fs.Bool("metrics", false,
		"collect per-cell metrics and print the merged snapshot after the table")
	profilePath := fs.String("profile", "",
		"write a Chrome trace-event file of every cell here")
	common.Topology(fs)
	if err := parse(fs, args); err != nil {
		return err
	}

	m, err := common.Resolve()
	if err != nil {
		return err
	}
	live, closeLive, err := bench.StartLive(common.Live, "netbench")
	if err != nil {
		return err
	}
	defer closeLive()

	cols := bench.Variants(bench.Libs(m, false))
	sizes := bench.Sizes(common.MinSize, common.MaxSize)
	profiled := *showMetrics || *profilePath != ""

	// One cell per (size, column); row-major so the serial order matches
	// the printed table.
	base := common.Spec()
	base.Workload, base.Inter = spec.WorkloadNetLatency, *inter
	if *bw {
		base.Workload = spec.WorkloadNetBandwidth
	}
	var specs []spec.Spec
	for _, size := range sizes {
		base.Bytes = size
		for _, c := range cols {
			specs = append(specs, c.Spec(base))
		}
	}
	vals, profs, err := bench.SweepSpecs(bench.NewObserve(live, profiled), specs)
	if err != nil {
		return err
	}
	for i := range profs {
		c := cols[i%len(cols)]
		profs[i].Label = fmt.Sprintf("%s/%dB", c.CLI+c.Impl(), sizes[i/len(cols)])
	}

	kind, unit := "one-way latency", "us"
	if *bw {
		kind, unit = "bandwidth", "GB/s"
	}
	fmt.Fprintf(stdout, "%s on %s (%s), %s\n", kind, m.Name, bench.Placement(*inter), unit)
	fmt.Fprintf(stdout, "%-12s", "bytes")
	for _, c := range cols {
		fmt.Fprintf(stdout, "%16s", c.CLI+c.Impl())
	}
	fmt.Fprintln(stdout)
	for r, size := range sizes {
		fmt.Fprintf(stdout, "%-12d", size)
		for k := range cols {
			v := vals[r*len(cols)+k]
			if *bw {
				v /= 1e9
			} else {
				v = sim.Duration(v).Micros()
			}
			fmt.Fprintf(stdout, "%16.2f", v)
		}
		fmt.Fprintln(stdout)
	}

	rp := &bench.RunProfile{Cells: profs}
	if *showMetrics {
		fmt.Fprintf(stdout, "\nmerged metrics (%d cells):\n%s", len(profs), rp.Merged().Render())
	}
	return writeProfile(stdout, *profilePath, rp)
}
