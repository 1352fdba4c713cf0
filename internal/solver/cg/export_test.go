package cg

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// RunFastForward runs cfg fast-forwarded, or in full when full is set, and
// reports how many iterations rank 0 simulated (-1 when the run had no
// controller).
func RunFastForward(cfg Config, full bool) (Result, int, error) {
	cfg.full = full
	return cfg.run()
}

// SteadyState runs cfg in full, recording spans, and reads its steady state
// off rank 0's SpMV kernels: from the middle of the run on they start k
// iterations and Δ apart, for the smallest such k up to 8 (0 when none
// repeats). It also renders the critical path through the spans that start
// and end inside the last whole cycle, one period's chain.
func SteadyState(cfg Config) (k int, period sim.Duration, chain string, err error) {
	log := trace.New()
	cfg.Trace, cfg.full = log, true
	if _, _, err := cfg.run(); err != nil {
		return 0, 0, "", err
	}
	var starts []sim.Time
	for s := range log.Sorted().Spans() {
		if s.Label == "kernel spmv" && s.Rank == 0 {
			starts = append(starts, s.Start)
		}
	}
	n := len(starts)
	for k = 1; k <= 8 && k < n/2; k++ {
		period = starts[n-1].Sub(starts[n-1-k])
		steady := true
		for i := n / 2; i+k < n; i++ {
			steady = steady && starts[i+k].Sub(starts[i]) == period
		}
		if steady {
			from, to := starts[n-1-k], starts[n-1]
			cycle := trace.New()
			for s := range log.Sorted().Spans() {
				if s.Start >= from && s.End <= to {
					cycle.Add(s)
				}
			}
			return k, period, trace.CriticalPath(cycle.Sorted()).Render(), nil
		}
	}
	return 0, 0, "", nil
}
