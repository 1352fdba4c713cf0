//go:build race

package main

// raceEnabled reports whether the race detector instruments this build. The
// full quick-scale experiments run skips under race: instrumentation
// multiplies its wall clock several-fold.
const raceEnabled = true
