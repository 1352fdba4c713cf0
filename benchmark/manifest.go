package main

import "encoding/json"

// manifest is BENCHMARK.json at the repository root: the contract the
// acceptance driver reads. It is generated from the tables in this package
// (-write-manifest) and benchmark_test.go fails when the two drift apart.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestWork `json:"workloads"`
	EndToEnd   []manifestE2E  `json:"end_to_end"`
	PerLayer   []manifestPer  `json:"per_layer"`
}

type manifestWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestPer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func manifestJSON() ([]byte, error) {
	m := manifest{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWork{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestE2E{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer() {
		m.PerLayer = append(m.PerLayer, manifestPer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	return append(b, '\n'), err
}
