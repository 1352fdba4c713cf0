// Package fixture is the ratchet fixture's facade.
package fixture

import "fixture/internal/a"

// T is the facade's alias of a.T.
type T = a.T

// Run calls a.Used.
func Run() { a.Used() }
