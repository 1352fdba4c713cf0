// Command benchmark is the ratchet fixture's frozen benchmark.
package main

import "fixture/internal/a"

func main() { a.ForBench() }
