package bench

// The deterministic parallel sweep. The paper's evaluation is a grid of
// *independent* simulations (message-size sweeps, GPU-count scaling,
// severity ramps); each cell builds its own sim.Engine inside core.Launch,
// so cells share no mutable state and can execute on any OS thread without
// changing their virtual-time results. sweep, the engine under SweepSpecs and
// RecoverySweep, fans cells out over GOMAXPROCS workers while keeping the
// observable output bit-identical to serial execution:
//
//   - cells are claimed off an atomic counter in increasing index order;
//   - every result lands in a slot keyed by cell index, never in arrival
//     order;
//   - on failure the error returned is the one at the lowest failing index,
//     which is exactly the error serial execution would have hit first
//     (cells below the first serial failure succeed deterministically, so
//     they can never pre-empt it), with the results of the cells before it;
//   - a panicking cell fails like an erroring one, and when it is the lowest
//     failure its panic is re-raised on the calling goroutine (*cellPanic);
//   - GOMAXPROCS=1 degrades to a plain loop on the calling goroutine, the
//     escape hatch for debugging.
//
// Observability ownership rule: trace logs and metrics registries are
// single-engine state with no internal locking. A cell records only into
// the collector sweep hands it (see profile.go), writes results only to its
// own index, and freezes them (collector.finish) before returning. Collected
// cells are then merged in index order by the caller, which keeps profiling
// output bit-identical to serial execution. Sharing a log or registry across
// cells is a data race AND a determinism bug — never do it.
//
// See DESIGN.md §8 for the full determinism argument and §10 for the
// observability layer built on this rule.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// sweep is the one fan-out of independent cells: it runs cell(i, c) for
// every i in [0, n), each with the instruments o decides on (Observe),
// and collects the cells' values and frozen profiles by index, so whatever
// is rendered from them is byte-identical at any GOMAXPROCS. It reports its
// run and cells to o's live tracker, if o carries one. On failure it
// returns, with the lowest-index error, those of the cells preceding the
// first failing one — what a serial loop would have produced before
// stopping.
func sweep[T any](o *Observe, n int, cell func(i int, c *collector) (T, CellProfile, error)) ([]T, []CellProfile, error) {
	vals := make([]T, n)
	profs := make([]CellProfile, n)
	done := make([]bool, n)
	err := NewRunner(0).run(n, o, func(i int) (err error) {
		vals[i], profs[i], err = cell(i, o.cell())
		done[i] = err == nil
		return err
	})
	for i := 0; err != nil && i < n; i++ {
		if !done[i] {
			return vals[:i], profs[:i], err
		}
	}
	return vals, profs, err
}

// Runner executes independent cells over a fixed-size worker pool: sweep's
// engine.
type Runner struct {
	workers int
}

// NewRunner returns a runner with the given worker count; workers <= 0
// selects GOMAXPROCS.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers}
}

// cellPanic is a cell's panic as Run re-raises it on the calling goroutine,
// with the index of the cell and the stack it panicked on.
type cellPanic struct {
	cell  int
	value any
	stack []byte
}

func (p *cellPanic) Error() string {
	return fmt.Sprintf("bench: sweep cell %d panicked: %v\n\n%s", p.cell, p.value, p.stack)
}

// runCell runs fn(i), returning a panic as a *cellPanic error.
func runCell(fn func(i int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &cellPanic{cell: i, value: v, stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Run executes fn(i) for every i in [0, n). Cells must be independent: each
// owns its private engine, trace log, and fault plan, and writes results
// only to its own index. With one worker, cells run in increasing index
// order on the calling goroutine. The lowest failing index decides the
// outcome, as serially: its error is returned or its panic re-raised as a
// *cellPanic; once any cell fails, unclaimed cells are skipped. Run reports
// progress to no tracker; sweep does, through its Observe.
func (r *Runner) Run(n int, fn func(i int) error) error { return r.run(n, nil, fn) }

// run is Run reporting its run and cells to o's live tracker, if any. That
// is read-only off the sweep: it never touches cell results or stdout.
func (r *Runner) run(n int, o *Observe, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := min(r.workers, n)
	var lr *telemetry.LiveRun // nil: a no-op handle
	if o != nil {
		lr = o.live.StartRun(o.label, n, w)
	}
	defer lr.End()
	var (
		next   atomic.Int64
		failed atomic.Bool
		errs   = make([]error, n)
		wg     sync.WaitGroup
	)
	next.Store(-1)
	// Worker k claims cells in index order until none is left or one failed;
	// worker 0 is the calling goroutine, so one worker is a serial loop.
	worker := func(k int) {
		for {
			i := int(next.Add(1))
			if i >= n || failed.Load() {
				return
			}
			if lr != nil {
				lr.CellStart(k, i, fmt.Sprintf("cell[%d]", i))
			}
			err := runCell(fn, i)
			lr.CellDone(k, i)
			if err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}
	}
	wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func() {
			defer wg.Done()
			worker(k)
		}()
	}
	worker(0)
	wg.Wait()
	// Lowest failing index wins: cells are claimed in increasing order, so
	// by the time any cell fails, every lower-index cell has already been
	// claimed and will complete. Since cells are deterministic, the cells
	// preceding the first serial failure always succeed, and the failure
	// returned or re-raised here is the serial one.
	for _, err := range errs {
		if p, ok := err.(*cellPanic); ok {
			panic(p)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
