package bench

// The deterministic parallel sweep runner. The paper's evaluation is a grid
// of *independent* simulations (message-size sweeps, GPU-count scaling,
// severity ramps); each cell builds its own sim.Engine inside core.Launch,
// so cells share no mutable state and can execute on any OS thread without
// changing their virtual-time results. The runner fans cells out over a
// bounded worker pool while keeping the observable output bit-identical to
// serial execution:
//
//   - cells are claimed off an atomic counter in increasing index order;
//   - every result lands in a caller-owned slot keyed by cell index, never
//     in arrival order;
//   - on failure the error returned is the one at the lowest failing index,
//     which is exactly the error serial execution would have hit first
//     (cells below the first serial failure succeed deterministically, so
//     they can never pre-empt it);
//   - UNICONN_WORKERS=1 (or NewRunner(1)) degrades to a plain loop on the
//     calling goroutine, the escape hatch for debugging.
//
// Observability ownership rule: trace logs and metrics registries are
// single-engine state with no internal locking. A cell that records spans or
// counters must allocate its own trace.Log / metrics.Registry (one Collector,
// see profile.go) inside its cell function, write results only to its own
// index, and freeze them (Snapshot / Sorted) before returning. Collected
// cells are then merged in index order by the caller, which keeps profiling
// output bit-identical to serial execution. Sharing a log or registry across
// cells is a data race AND a determinism bug — never do it.
//
// See DESIGN.md §8 for the full determinism argument and §10 for the
// observability layer built on this rule.

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/spec"
)

// defaultWorkers resolves the default sweep worker count: UNICONN_WORKERS when it
// is set to a positive integer, otherwise GOMAXPROCS.
func defaultWorkers() int {
	if s := os.Getenv(spec.WorkersEnv); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 1 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Runner executes independent sweep cells over a fixed-size worker pool.
type Runner struct {
	workers int
}

// NewRunner returns a runner with the given worker count; workers <= 0
// selects the environment default (Workers()).
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = defaultWorkers()
	}
	return &Runner{workers: workers}
}

// Run executes fn(i) for every i in [0, n). Cells must be independent: each
// owns its private engine, trace log, and fault plan, and writes results
// only to its own index. With one worker, cells run in increasing index
// order on the calling goroutine. The returned error is the error of the
// lowest failing index (the same error serial execution returns); once any
// cell fails, unclaimed cells are skipped.
func (r *Runner) Run(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := r.workers
	if w > n {
		w = n
	}
	// Live progress (nil handle when no tracker is installed): reporting is
	// read-only off the sweep — it never touches cell results or stdout, so
	// output stays byte-identical with tracking on or off.
	lr := progressRun(n, w)
	defer lr.End()
	if w <= 1 {
		for i := 0; i < n; i++ {
			if lr != nil {
				lr.CellStart(0, i, cellLabel(i))
			}
			err := fn(i)
			lr.CellDone(0, i)
			if err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		errs   = make([]error, n)
		wg     sync.WaitGroup
	)
	next.Store(-1)
	wg.Add(w)
	for k := 0; k < w; k++ {
		k := k
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || failed.Load() {
					return
				}
				if lr != nil {
					lr.CellStart(k, i, cellLabel(i))
				}
				err := fn(i)
				lr.CellDone(k, i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	// Lowest failing index wins: cells are claimed in increasing order, so
	// by the time any cell fails, every lower-index cell has already been
	// claimed and will complete. Since cells are deterministic, the cells
	// preceding the first serial failure always succeed, and the error
	// reported here equals the serial one.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweep runs fn over n cells with the default runner and collects the
// results by cell index.
func sweep[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return sweepWith[T](NewRunner(0), n, fn)
}

// sweepPrefix is sweep for results that are consumed cell by cell: on failure
// it returns, with the error, the results preceding the first failing cell —
// what a serial loop would have produced before stopping. (Cells below the
// lowest failing index always complete; see Runner.Run.)
func sweepPrefix[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	done := make([]bool, n)
	err := NewRunner(0).Run(n, func(i int) error {
		v, err := fn(i)
		out[i], done[i] = v, err == nil
		return err
	})
	for i := 0; err != nil && i < n; i++ {
		if !done[i] {
			return out[:i], err
		}
	}
	return out, err
}

// sweepWith is sweep with an explicit runner.
func sweepWith[T any](r *Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := r.Run(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
