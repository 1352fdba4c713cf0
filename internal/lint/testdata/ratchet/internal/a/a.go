// Package a is the ratchet fixture's library.
package a

// Used is called by the facade.
func Used() { Local() }

// Unused has no caller: the ratchet flags it for deletion.
func Unused() {}

// Local is called only inside this package: the ratchet flags it for
// unexporting.
func Local() {}

// T is aliased by the facade, so its methods are public API.
type T struct{}

// Method is never called, but T is aliased by the facade.
func (T) Method() {}

// ForBench is called only by the frozen benchmark.
func ForBench() {}
