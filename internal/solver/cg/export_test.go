package cg

// RunFastForward runs cfg fast-forwarded, or in full when full is set, and
// reports how many iterations rank 0 simulated (-1 when the run had no
// controller).
func RunFastForward(cfg Config, full bool) (Result, int, error) {
	cfg.full = full
	return cfg.run()
}
