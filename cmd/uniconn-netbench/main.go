// uniconn-netbench runs the OSU-derived latency/bandwidth microbenchmarks
// (paper §VI-B) for one machine and prints a sweep table comparing native
// and UNICONN implementations of every supported (library, API) pair.
//
// The size × column grid is a set of independent simulations; it fans out
// over the deterministic parallel runner (internal/bench.Sweep), so the
// table is bit-identical at any UNICONN_WORKERS setting.
//
// -live serves the live telemetry endpoints (/metrics /healthz /debug/runs
// /debug/flight) while the sweep runs, without changing a byte of stdout;
// with it a SIGINT prints the sweep progress and accumulated metrics to
// stderr.
//
// Usage:
//
//	uniconn-netbench                              # Perlmutter, intra-node
//	uniconn-netbench -machine LUMI -inter
//	uniconn-netbench -min 8 -max 16777216 -bw
//	uniconn-netbench -live 127.0.0.1:9187
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/spec"
)

func main() {
	common := spec.Common(flag.CommandLine)
	inter := flag.Bool("inter", false, "benchmark across two nodes")
	minSize := flag.Int64("min", 8, "smallest message (bytes)")
	maxSize := flag.Int64("max", 4<<20, "largest message (bytes)")
	bw := flag.Bool("bw", false, "measure bandwidth instead of latency")
	showMetrics := flag.Bool("metrics", false,
		"collect per-cell metrics and print the merged snapshot after the table")
	profilePath := flag.String("profile", "",
		"write a Chrome trace-event file of every cell here")
	topoFlag := spec.TopologyFlag(flag.CommandLine)
	flag.Parse()

	m, err := common.Model()
	if err != nil {
		log.Fatal(err)
	}
	tc, err := fabric.ParseTopology(*topoFlag)
	if err != nil {
		log.Fatal(err)
	}
	// Clone-on-override so the topology applies to every workload the tool
	// launches on the shared model value.
	m = spec.WithTopology(m, tc)
	if *minSize < 1 {
		log.Fatalf("-min %d: smallest message must be at least 1 byte", *minSize)
	}
	if *maxSize < *minSize {
		log.Fatalf("-max %d is smaller than -min %d", *maxSize, *minSize)
	}
	common.ApplyEnv()

	type col struct {
		label   string
		backend core.BackendID
		api     machine.API
		native  bool
	}
	var cols []col
	add := func(label string, b core.BackendID, api machine.API) {
		cols = append(cols,
			col{label + ":Native", b, api, true},
			col{label + ":Uniconn", b, api, false})
	}
	add("MPI", core.MPIBackend, machine.APIHost)
	add("GPUCCL", core.GpucclBackend, machine.APIHost)
	if m.HasGPUSHMEM {
		add("SHMEM-H", core.GpushmemBackend, machine.APIHost)
		add("SHMEM-D", core.GpushmemBackend, machine.APIDevice)
	}

	live, closeLive, err := bench.StartLive(*common.Live, "netbench")
	if err != nil {
		log.Fatal(err)
	}
	defer closeLive()

	sizes := bench.Sizes(*minSize, *maxSize)
	profiled := *showMetrics || *profilePath != ""

	// Cells that collect no metrics share one warmed cost cache per worker
	// (bench.ModelPool): the whole grid runs on one machine, so per-cell
	// cache rebuilds are pure waste. Metrics-collecting cells keep private
	// caches — their machine.costcache.* counters are part of the output.
	var pool *bench.ModelPool
	if !profiled && live == nil {
		pool = bench.NewModelPool(m, 0)
	}

	// One cell per (size, column); row-major so the serial order matches
	// the printed table. With -metrics/-profile every cell owns a private
	// Collector (see internal/bench/runner.go for the ownership rule), and
	// the profiles are reassembled in cell-index order below.
	type cellOut struct {
		val  float64
		prof bench.CellProfile
	}
	cells, err := bench.SweepWorker(len(sizes)*len(cols), func(k, i int) (cellOut, error) {
		c := cols[i%len(cols)]
		cfg := bench.NetConfig{Model: m, Backend: c.backend, API: c.api,
			Native: c.native, Inter: *inter, Bytes: sizes[i/len(cols)],
			Costs: pool.Costs(k)}
		var col *bench.Collector
		if profiled {
			col = bench.NewCollector()
			cfg.Metrics, cfg.Trace = col.Metrics, col.Trace
		} else if live != nil {
			// Metrics only — the live /metrics endpoint wants per-cell
			// registries, but nobody asked for span traces.
			cfg.Metrics = metrics.New()
		}
		var out cellOut
		var rep core.Report
		var err error
		if *bw {
			out.val, rep, err = bench.BandwidthRun(cfg)
		} else {
			var lat sim.Duration
			lat, rep, err = bench.LatencyRun(cfg)
			out.val = lat.Micros()
		}
		if err != nil {
			return out, err
		}
		if profiled {
			out.prof = col.Finish(
				fmt.Sprintf("%s/%dB", c.label, cfg.Bytes), rep.End)
		}
		if live != nil {
			live.AddSnapshot(cfg.Metrics.Snapshot())
		}
		return out, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	vals := make([]float64, len(cells))
	profs := make([]bench.CellProfile, len(cells))
	for i, c := range cells {
		vals[i], profs[i] = c.val, c.prof
	}

	kind, unit := "one-way latency", "us"
	if *bw {
		kind, unit = "bandwidth", "GB/s"
	}
	where := "intra-node"
	if *inter {
		where = "inter-node"
	}
	fmt.Printf("%s on %s (%s), %s\n", kind, m.Name, where, unit)
	fmt.Printf("%-12s", "bytes")
	for _, c := range cols {
		fmt.Printf("%16s", c.label)
	}
	fmt.Println()
	for r, size := range sizes {
		fmt.Printf("%-12d", size)
		for k := range cols {
			v := vals[r*len(cols)+k]
			if *bw {
				fmt.Printf("%16.2f", v/1e9)
			} else {
				fmt.Printf("%16.2f", v)
			}
		}
		fmt.Println()
	}

	if profiled {
		rp := &bench.RunProfile{
			Title: fmt.Sprintf("netbench %s %s (%d cells)", m.Name, where, len(profs)),
			Cells: profs,
		}
		if *showMetrics {
			fmt.Printf("\nmerged metrics (%d cells):\n%s", len(profs), rp.Merged().Render())
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
