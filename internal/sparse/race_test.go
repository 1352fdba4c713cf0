//go:build race

package sparse

// raceEnabled reports whether the race detector is on: it multiplies a full
// run's cost about tenfold.
const raceEnabled = true
