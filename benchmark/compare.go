package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// compare: per workload and end-to-end metric, the medians and quartiles of
// two result files and a verdict under the bounds this benchmark fixes —
// the two-named-commands layout of a hyperfine comparison. It is what the
// A/A acceptance check and every later no-regression claim run.

type comparison struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	A        side    `json:"a"`
	B        side    `json:"b"`
	// WorsePct is B's median against A's, signed so that positive is worse.
	WorsePct float64 `json:"worse_pct"`
	// Verdict is "ok", "regressed" (B's median is worse than A's by more
	// than the bound) or "unresolved" (either side's run-to-run spread,
	// Q3-Q1 over the median, is wider than the bound, so the runs cannot
	// tell).
	Verdict string `json:"verdict"`
}

type side struct {
	Runs   int     `json:"runs"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func sideOf(xs []float64) side {
	q1, q3 := quartiles(xs)
	return side{Runs: len(xs), Median: median(xs), Q1: q1, Q3: q3}
}

func (s side) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// judge applies a metric's bound to the two sides.
func judge(def metricDef, a, b side) (worsePct float64, verdict string) {
	worse := b.Median - a.Median
	if def.Better == "higher" {
		worse = -worse
	}
	if a.Median != 0 {
		worsePct = worse / a.Median * 100
	}
	allowed := def.Bound * a.Median
	if def.Name == "setup_s" && allowed < setupSlackS {
		allowed = setupSlackS
	}
	spreadLimit := def.Bound
	if def.Name == "setup_s" {
		// Set-up spread is not judged: most workloads set up in a fraction
		// of a second, where the absolute slack decides.
		spreadLimit = 1e9
	}
	switch {
	case a.spread() > spreadLimit || b.spread() > spreadLimit:
		return worsePct, "unresolved"
	case worse > allowed:
		return worsePct, "regressed"
	}
	return worsePct, "ok"
}

// untracedValues groups a file's untraced full-scale runs by workload and
// end-to-end metric.
func untracedValues(path string) (map[string]map[string][]float64, []record, error) {
	recs, err := readRecords(path)
	if err != nil {
		return nil, nil, err
	}
	vals := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Suite != suiteVersion {
			return nil, nil, fmt.Errorf("%s: suite %q, this binary is %q: the numbers do not compare", path, r.Suite, suiteVersion)
		}
		if r.Trace || r.Smoke {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for _, d := range endToEnd {
			if mv, ok := r.Metrics[d.Name]; ok {
				vals[r.Workload][d.Name] = append(vals[r.Workload][d.Name], mv.Value)
			}
		}
	}
	return vals, recs, nil
}

func compareFiles(pathA, pathB string) ([]comparison, []string, error) {
	a, recsA, err := untracedValues(pathA)
	if err != nil {
		return nil, nil, err
	}
	b, recsB, err := untracedValues(pathB)
	if err != nil {
		return nil, nil, err
	}
	var notes []string
	if len(recsA) > 0 && len(recsB) > 0 && recsA[0].Host != recsB[0].Host {
		notes = append(notes, fmt.Sprintf("hosts differ (%+v vs %+v): host times do not compare", recsA[0].Host, recsB[0].Host))
	}
	for _, side := range []struct {
		path string
		recs []record
	}{{pathA, recsA}, {pathB, recsB}} {
		for _, r := range side.recs {
			if !r.Correct {
				notes = append(notes, fmt.Sprintf("%s: %s seed %d failed %d/%d operations", side.path, r.Workload, r.Seed, r.Failed, r.Attempted))
			}
		}
	}
	var out []comparison
	for i := range workloads {
		w := workloads[i].name
		for _, d := range endToEnd {
			xa, xb := a[w][d.Name], b[w][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := comparison{Workload: w, Metric: d.Name, Unit: d.Unit, Bound: d.Bound, A: sideOf(xa), B: sideOf(xb)}
			c.WorsePct, c.Verdict = judge(d, c.A, c.B)
			out = append(out, c)
		}
	}
	return out, notes, nil
}

func markdown(pathA, pathB string, cs []comparison, notes []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "A = `%s`, B = `%s`; median [Q1, Q3] over the runs on file; worse = B against A, positive is worse.\n\n", pathA, pathB)
	b.WriteString("| workload | metric | unit | A (runs) | B (runs) | worse | bound | verdict |\n")
	b.WriteString("|:---|:---|:---|---:|---:|---:|---:|:---|\n")
	for _, c := range cs {
		cell := func(s side) string {
			return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", s.Median, s.Q1, s.Q3, s.Runs)
		}
		fmt.Fprintf(&b, "| `%s` | `%s` | %s | %s | %s | %+.1f %% | %.0f %% | %s |\n",
			c.Workload, c.Metric, c.Unit, cell(c.A), cell(c.B), c.WorsePct, c.Bound*100, c.Verdict)
	}
	for _, n := range notes {
		fmt.Fprintf(&b, "\nnote: %s\n", n)
	}
	return b.String()
}

// compareMain is `benchmark compare A.jsonl B.jsonl`: markdown on standard
// output, and compare.md / compare.json beside the first file. Exit status 1
// when any row regressed or any run on file failed operations.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.jsonl B.jsonl")
		return 2
	}
	cs, notes, err := compareFiles(args[0], args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	md := markdown(args[0], args[1], cs, notes)
	fmt.Print(md)
	js, err := json.MarshalIndent(struct {
		A, B  string
		Rows  []comparison
		Notes []string
	}{args[0], args[1], cs, notes}, "", "  ")
	if err == nil {
		dir := filepath.Dir(args[0])
		err = os.WriteFile(filepath.Join(dir, "compare.json"), append(js, '\n'), 0o644)
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, "compare.md"), []byte(md), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	status := 0
	for _, c := range cs {
		if c.Verdict == "regressed" {
			status = 1
		}
	}
	for _, n := range notes {
		if strings.Contains(n, "failed") {
			status = 1
		}
	}
	return status
}
