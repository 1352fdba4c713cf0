//go:build !race

package gpu

// raceEnabled reports whether the race detector is on: the staging arena
// then fills every slice it hands out with NaN (internal/buf).
const raceEnabled = false
