package main

import (
	"fmt"
	"io"

	"repro/internal/autosel"
	"repro/internal/bench"
	"repro/internal/spec"
)

// advisor implements the paper's future-work direction of
// performance-guided backend selection (§VIII): it calibrates every
// supported (backend, API) pair on a machine with the OSU-style
// microbenchmarks and prints, per message size and placement, which backend
// a UNICONN application should select.
//
// Usage:
//
//	uniconn advisor                        # Perlmutter
//	uniconn advisor -machine LUMI
//	uniconn advisor -size 32768 -inter     # one query
func advisor(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("advisor", stderr)
	common := spec.MachineOnly(fs)
	size := fs.Int64("size", 0, "answer a single query for this message size (bytes)")
	inter := fs.Bool("inter", false, "query inter-node placement")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *size < 0 {
		return fmt.Errorf("-size %d: message size must be at least 1 byte", *size)
	}
	m, err := common.Resolve()
	if err != nil {
		return err
	}
	adv, err := autosel.Calibrate(m, nil)
	if err != nil {
		return err
	}
	if *size > 0 {
		lw, lv := adv.Recommend(*size, *inter, autosel.MinLatency)
		bw, bv := adv.Recommend(*size, *inter, autosel.MaxBandwidth)
		fmt.Fprintf(stdout, "machine=%s size=%s inter=%v\n", m.Name, bench.HumanBytes(*size), *inter)
		fmt.Fprintf(stdout, "  lowest latency:  %v (%.2f us)\n", lw, lv/1000)
		fmt.Fprintf(stdout, "  best bandwidth:  %v (%.2f GB/s)\n", bw, bv/1e9)
		return nil
	}
	fmt.Fprintln(stdout, adv.Report())
	for _, inter := range []bool{false, true} {
		where := bench.Placement(inter)
		if x := adv.Crossover(inter, autosel.MinLatency); x > 0 {
			fmt.Fprintf(stdout, "%s latency crossover near %s\n", where, bench.HumanBytes(x))
		}
		if x := adv.Crossover(inter, autosel.MaxBandwidth); x > 0 {
			fmt.Fprintf(stdout, "%s bandwidth crossover near %s\n", where, bench.HumanBytes(x))
		}
	}
	return nil
}
