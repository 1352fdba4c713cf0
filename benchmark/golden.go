package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// golden.json holds, per workload, seed and operation count, the SHA-256
// over every operation's simulated result: per-iteration virtual time and
// Report.End of each allreduce cell, PerIter/End of each Jacobi cell, Total/
// End of each CG cell, and every /query body. A change meant to speed the
// simulator up must leave every one of them identical. Seeds 1 and 2 at the
// full operation count are recorded (and seed 1 at -scale smoke, for the
// self-test); any other run checks self-consistency only and prints its
// digest.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic(fmt.Sprintf("golden.json: %v", err))
	}
	return m
}()

func goldenKey(workload string, seed uint64, ops int, smoke bool) string {
	k := fmt.Sprintf("%s/seed%d/ops%d", workload, seed, ops)
	if smoke {
		k += "/smoke"
	}
	return k
}
