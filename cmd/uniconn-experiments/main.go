// uniconn-experiments regenerates every table and figure of the paper's
// evaluation section on the simulated clusters and prints them as text
// tables with the headline summary notes.
//
// Figure sweeps fan out over the deterministic parallel runner
// (internal/bench.Sweep); -workers or UNICONN_WORKERS bounds the pool, and
// the output is bit-identical at any worker count.
//
// Usage:
//
//	uniconn-experiments                  # everything, quick scale
//	uniconn-experiments -fig 5           # only Figure 5
//	uniconn-experiments -table 2         # only Table II
//	uniconn-experiments -scale paper     # publication sizing (slow)
//	uniconn-experiments -workers 1       # serial sweeps (debugging)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/spec"
)

func main() {
	fig := flag.Int("fig", 0, "regenerate only this figure (2..6); 0 = all")
	table := flag.Int("table", 0, "regenerate only this table (1..2); 0 = all")
	scaleName := flag.String("scale", "quick", "quick|paper experiment sizing")
	root := flag.String("root", ".", "repository root (for Table II SLOC counts)")
	workers := flag.Int("workers", 0,
		"sweep worker count; 0 = UNICONN_WORKERS env or GOMAXPROCS")
	flag.Parse()

	scale := bench.Quick
	if *scaleName == "paper" {
		scale = bench.Paper
	} else if *scaleName != "quick" {
		log.Fatalf("unknown scale %q", *scaleName)
	}

	spec.ApplyWorkersEnv(*workers)

	onlyFigs := *fig != 0 || *table == 0
	onlyTables := *table != 0 || *fig == 0

	emit := func(figs []bench.Figure, err error) {
		if err != nil {
			log.Fatal(err)
		}
		for _, f := range figs {
			fmt.Println(f.Render())
		}
	}

	if onlyTables && (*table == 0 || *table == 1) {
		fmt.Println(bench.Table1())
	}
	if onlyFigs {
		if *fig == 0 || *fig == 2 {
			emit(bench.RunFig2(scale))
		}
		if *fig == 0 || *fig == 3 {
			emit(bench.RunFig34(scale, false))
		}
		if *fig == 0 || *fig == 4 {
			emit(bench.RunFig34(scale, true))
		}
		if *fig == 0 || *fig == 5 {
			emit(bench.RunFig5(scale))
		}
		if *fig == 0 || *fig == 6 {
			emit(bench.RunFig6(scale))
		}
	}
	if onlyTables && (*table == 0 || *table == 2) {
		s, err := bench.Table2(*root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "Table II unavailable (run from the repository root): %v\n", err)
			os.Exit(1)
		}
		fmt.Println(s)
	}
}
