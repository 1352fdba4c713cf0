package main

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/sloc"
)

// experiments regenerates every table and figure of the paper's evaluation
// section on the simulated clusters and prints them as text tables with the
// headline summary notes.
//
// Every figure's cells are specs run by one bench.SweepSpecs, GOMAXPROCS at
// a time, and the output is bit-identical at any worker count.
//
// Usage:
//
//	uniconn experiments                  # everything, quick scale
//	uniconn experiments -fig 5           # only Figure 5
//	uniconn experiments -table 2         # only Table II
//	uniconn experiments -scale paper     # publication sizing (slow)
//	GOMAXPROCS=1 uniconn experiments     # serial sweeps (debugging)
func experiments(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("experiments", stderr)
	fig := fs.Int("fig", 0, "regenerate only this figure (2..6); 0 = all")
	table := fs.Int("table", 0, "regenerate only this table (1..2); 0 = all")
	scaleName := fs.String("scale", "quick", "quick|paper experiment sizing")
	root := fs.String("root", ".", "repository root (for Table II SLOC counts)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *fig != 0 && (*fig < 2 || *fig > 6) {
		return badUsage(fs, "-fig %d: the figures are 2..6", *fig)
	}
	if *table < 0 || *table > 2 {
		return badUsage(fs, "-table %d: the tables are 1..2", *table)
	}
	sc := bench.Quick
	if *scaleName == "paper" {
		sc = bench.Paper
	} else if *scaleName != "quick" {
		return fmt.Errorf("unknown scale %q", *scaleName)
	}

	figs := *fig != 0 || *table == 0
	tables := *table != 0 || *fig == 0
	if tables && *table != 2 {
		fmt.Fprintln(stdout, bench.Table1())
	}
	if figs {
		figures := map[int]func() ([]bench.Figure, error){
			2: func() ([]bench.Figure, error) { return bench.RunFig2(sc) },
			3: func() ([]bench.Figure, error) { return bench.RunFig34(sc, false) },
			4: func() ([]bench.Figure, error) { return bench.RunFig34(sc, true) },
			5: func() ([]bench.Figure, error) { return bench.RunFig5(sc) },
			6: func() ([]bench.Figure, error) { return bench.RunFig6(sc) },
		}
		for n := 2; n <= 6; n++ {
			if *fig != 0 && *fig != n {
				continue
			}
			out, err := figures[n]()
			if err != nil {
				return err
			}
			for _, f := range out {
				fmt.Fprintln(stdout, f.Render())
			}
		}
	}
	if tables && *table != 1 {
		s, err := bench.Table2(*root)
		if err != nil {
			return fmt.Errorf("Table II unavailable (run from the repository root): %w", err)
		}
		fmt.Fprintln(stdout, s)
	}
	return nil
}

// slocCmd recomputes the paper's Table II (source lines of code per
// experiment per library) from this repository's own benchmark and solver
// sources — the same table as `uniconn experiments -table 2` — or counts
// arbitrary Go files.
//
// Usage:
//
//	uniconn sloc                      # Table II from the repository root
//	uniconn sloc -root /path/to/repo
//	uniconn sloc file1.go file2.go    # plain per-file counts
func slocCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("sloc", stderr)
	root := fs.String("root", ".", "repository root")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		s, err := bench.Table2(*root)
		if err != nil {
			return fmt.Errorf("run from the repository root (or pass -root): %w", err)
		}
		fmt.Fprintln(stdout, s)
		return nil
	}
	total := 0
	for _, path := range fs.Args() {
		n, err := sloc.CountFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%8d %s\n", n, path)
		total += n
	}
	fmt.Fprintf(stdout, "%8d total\n", total)
	return nil
}
