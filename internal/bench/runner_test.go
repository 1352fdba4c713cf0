package bench

// Tests for the deterministic parallel sweep: unit tests for the pool
// mechanics (index ordering, lowest-index error), and end-to-end determinism
// tests asserting that a full figure sweep and a chaos severity sweep render
// byte-identically at GOMAXPROCS 1 and 8.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/spec"
)

// setProcs sets GOMAXPROCS, the width of every sweep, for the rest of the
// test.
func setProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestRunnerSerialOrder(t *testing.T) {
	r := NewRunner(1)
	var order []int
	if err := r.Run(8, func(i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v, want ascending", order)
		}
	}
}

func TestRunnerCoversAllCells(t *testing.T) {
	const n = 100
	r := NewRunner(8)
	var mu sync.Mutex
	seen := make(map[int]int, n)
	if err := r.Run(n, func(i int) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(seen) != n {
		t.Fatalf("covered %d cells, want %d", len(seen), n)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
}

func TestRunnerReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	for trial := 0; trial < 20; trial++ {
		r := NewRunner(8)
		err := r.Run(64, func(i int) error {
			switch i {
			case 7:
				return errLow
			case 9, 23, 41:
				return fmt.Errorf("higher %d", i)
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("trial %d: err = %v, want %v", trial, err, errLow)
		}
	}
}

func TestRunnerSkipsAfterFailure(t *testing.T) {
	// With one worker a failure stops the sweep immediately; later cells
	// must never run.
	r := NewRunner(1)
	var ran atomic.Int64
	err := r.Run(10, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || ran.Load() != 4 {
		t.Fatalf("ran %d cells (err=%v), want 4", ran.Load(), err)
	}
}

func TestRunnerEmptySweep(t *testing.T) {
	if err := NewRunner(4).Run(0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("empty sweep: %v", err)
	}
}

func TestSweepCollectsByIndex(t *testing.T) {
	setProcs(t, 8)
	got, _, err := sweep(nil, 50, func(i int, _ *collector) (int, CellProfile, error) {
		return i * i, CellProfile{}, nil
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestSweepPanicReachesCaller: a panicking cell reaches sweep's caller as a
// *cellPanic at any GOMAXPROCS, the lowest-index failure winning as it would
// serially, with the cell's own stack; on a worker goroutine it used to end
// the process.
func TestSweepPanicReachesCaller(t *testing.T) {
	sweep := func(procs int) (p *cellPanic) {
		setProcs(t, procs)
		defer func() {
			r := recover()
			var ok bool
			if p, ok = r.(*cellPanic); !ok {
				t.Fatalf("GOMAXPROCS %d: recovered %#v, want a *cellPanic", procs, r)
			}
		}()
		sweep(nil, 16, func(i int, _ *collector) (int, CellProfile, error) {
			if i >= 3 && i%2 == 1 {
				panic(fmt.Sprintf("cell %d", i))
			}
			if i == 12 {
				return 0, CellProfile{}, errors.New("cell 12")
			}
			return i, CellProfile{}, nil
		})
		t.Fatalf("GOMAXPROCS %d: sweep returned", procs)
		return nil
	}
	for _, procs := range []int{1, 4} {
		if p := sweep(procs); p.cell != 3 || p.value != "cell 3" || !strings.Contains(string(p.stack), "TestSweepPanicReachesCaller") {
			t.Errorf("GOMAXPROCS %d: recovered cell %d, value %v, stack:\n%s\nwant cell 3's panic on its own stack", procs, p.cell, p.value, p.stack)
		}
	}
}

// TestFigureSweepDeterministic renders a full paper figure at GOMAXPROCS 1
// and 8 and asserts the outputs are byte-identical. Fig 6 (CG solver
// scaling) is the cheapest figure that still exercises machine models,
// backends, and the sparse solver end to end.
func TestFigureSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second figure sweep")
	}
	render := func(procs int) string {
		setProcs(t, procs)
		figs, err := RunFig6(Quick)
		if err != nil {
			t.Fatalf("RunFig6(GOMAXPROCS=%d): %v", procs, err)
		}
		var sb strings.Builder
		for _, f := range figs {
			sb.WriteString(f.Render())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("figure output diverged between GOMAXPROCS 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestChaosRampDeterministic runs a severity ramp's latency and bandwidth
// cells at GOMAXPROCS 1 and 8 and asserts identical values and transfer
// counts.
func TestChaosRampDeterministic(t *testing.T) {
	severities := []float64{0, 0.25, 0.5, 0.75, 1}
	specs := append(chaosRamp(chaosBackends[0].backend, spec.WorkloadNetLatency, severities),
		chaosRamp(chaosBackends[0].backend, spec.WorkloadNetBandwidth, severities)...)
	sweep := func(procs int) ([]float64, []CellProfile) {
		setProcs(t, procs)
		vals, profs, err := SweepSpecs(NewObserve(nil, true), specs)
		if err != nil {
			t.Fatalf("SweepSpecs(GOMAXPROCS=%d): %v", procs, err)
		}
		return vals, profs
	}
	serialVals, serialProfs := sweep(1)
	parallelVals, parallelProfs := sweep(8)
	for i := range specs {
		if serialVals[i] != parallelVals[i] || serialProfs[i].Transfers() != parallelProfs[i].Transfers() {
			t.Fatalf("cell %s diverged: serial %v (%d transfers), parallel %v (%d transfers)", specs[i],
				serialVals[i], serialProfs[i].Transfers(), parallelVals[i], parallelProfs[i].Transfers())
		}
	}
}

// TestSweepObservedErrorMatchesSerial fails spec cells mid-ramp (a message
// size the spec layer would refuse, run past it) and checks that the
// parallel sweep reports the same first error and the same preceding values
// as the serial one.
func TestSweepObservedErrorMatchesSerial(t *testing.T) {
	severities := []float64{0, 0.5, 2.5, 3}
	specs := chaosRamp(chaosBackends[0].backend, spec.WorkloadNetLatency, severities)
	for i, sev := range severities {
		if sev > 2 {
			specs[i].Bytes = 12
		}
	}
	run := func(procs int) ([]float64, error) {
		setProcs(t, procs)
		vals, _, err := sweep(nil, len(specs), func(i int, col *collector) (float64, CellProfile, error) {
			v, _, err := runSpec(specs[i], col)
			return v, CellProfile{}, err
		})
		return vals, err
	}
	sVals, sErr := run(1)
	pVals, pErr := run(8)
	if sErr == nil || pErr == nil || sErr.Error() != pErr.Error() {
		t.Fatalf("errors diverged or missing: serial %v, parallel %v", sErr, pErr)
	}
	if len(sVals) != 2 || fmt.Sprint(sVals) != fmt.Sprint(pVals) {
		t.Fatalf("prefixes diverged: serial %v, parallel %v; want the two healthy cells", sVals, pVals)
	}
}

// TestSweepSpecsValidatesFirst: an invalid spec anywhere in a sweep refuses
// the whole sweep before any cell runs.
func TestSweepSpecsValidatesFirst(t *testing.T) {
	specs := chaosRamp(chaosBackends[0].backend, spec.WorkloadNetLatency, []float64{0, 1})
	specs[1].Bytes = 2 << 30
	vals, profs, err := SweepSpecs(NewObserve(nil, true), specs)
	if err == nil || !strings.Contains(err.Error(), "bytes must be") || vals != nil || profs != nil {
		t.Fatalf("SweepSpecs = %v, %d profiles, %v; want no cell run and the size refused", vals, len(profs), err)
	}
}
