//go:build race

package cg_test

// raceEnabled reports whether the race detector is on: it multiplies a full
// run's cost about tenfold.
const raceEnabled = true
