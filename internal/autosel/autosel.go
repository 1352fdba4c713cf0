// Package autosel implements performance-guided automatic backend
// selection, the future-work direction the paper names in §VIII
// ("performance-guided automated backend library selection") and discusses
// in §II-C: the optimal library depends on message size, intra- vs
// inter-node placement, and the machine, so the choice should be measured,
// not guessed.
//
// The Advisor probes each candidate (backend, API) pair with the OSU-style
// microbenchmarks at calibration time and answers queries ("which backend
// for 32 KiB halo messages across nodes on LUMI?") from the measured
// tables, interpolating between probed sizes. This mirrors the tuning
// approach of MCR-DL that the paper cites as related work.
package autosel

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/spec"
)

// Candidate is one selectable communication configuration.
type Candidate struct {
	backend core.BackendID
	api     machine.API
}

func (c Candidate) String() string {
	if c.api == machine.APIDevice {
		return fmt.Sprintf("%v(device)", c.backend)
	}
	return c.backend.String()
}

// Metric selects the optimization target.
type Metric int

// Optimization targets.
const (
	// MinLatency picks the lowest one-way latency (small messages,
	// latency-bound exchanges).
	MinLatency Metric = iota
	// MaxBandwidth picks the highest streaming bandwidth (bulk
	// transfers).
	MaxBandwidth
)

func (m Metric) String() string {
	if m == MaxBandwidth {
		return "max-bandwidth"
	}
	return "min-latency"
}

// probe is one measured point.
type probe struct {
	latency   sim.Duration
	bandwidth float64
}

// table holds one candidate's measurements over the probed sizes.
type table struct {
	cand   Candidate
	probes map[int64]probe
}

// Advisor answers backend-selection queries for one machine from measured
// calibration data.
type Advisor struct {
	model  *machine.Model
	sizes  []int64
	tables map[bool][]table // keyed by inter-node
}

// Calibrate measures every supported candidate on the machine at the given
// probe sizes (nil selects a default 8B..4MiB power-of-four sweep) and
// returns an Advisor. Calibration cost is the price of the probes — the
// same trade the paper's related work (MCR-DL tuning suites) makes.
//
// The probes are canonical experiment specs swept as one batch
// (bench.SweepSpecs): they fan out over the sweep runner. Specs address
// machines by name, so m must be a registered model (machine.ByName).
func Calibrate(m *machine.Model, sizes []int64) (*Advisor, error) {
	if len(sizes) == 0 {
		for s := int64(8); s <= 4<<20; s *= 4 {
			sizes = append(sizes, s)
		}
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	a := &Advisor{model: m, sizes: sizes, tables: map[bool][]table{}}
	libs := bench.Libs(m, false)
	// Two specs per (placement, candidate, size), latency then bandwidth,
	// in the order the tables are filled below.
	var probes []spec.Spec
	for _, inter := range []bool{false, true} {
		for _, l := range libs {
			for _, size := range sizes {
				sp := bench.Variant{Lib: l, Native: true}.Spec(spec.Spec{
					Workload: spec.WorkloadNetLatency, Machine: m.Name, Inter: inter, Bytes: size,
					Iters: 20, Warmup: 2, Window: 16,
				})
				probes = append(probes, sp)
				sp.Workload = spec.WorkloadNetBandwidth
				probes = append(probes, sp)
			}
		}
	}
	values, _, err := bench.SweepSpecs(nil, probes)
	if err != nil {
		return nil, fmt.Errorf("autosel: probing: %w", err)
	}
	for _, inter := range []bool{false, true} {
		for _, l := range libs {
			tb := table{cand: Candidate{l.Backend, l.API}, probes: map[int64]probe{}}
			for _, size := range sizes {
				tb.probes[size] = probe{latency: sim.Duration(values[0]), bandwidth: values[1]}
				values = values[2:]
			}
			a.tables[inter] = append(a.tables[inter], tb)
		}
	}
	return a, nil
}

// valueAt interpolates a candidate's metric at an arbitrary size
// (log-linear between the surrounding probes, clamped at the ends).
func (a *Advisor) valueAt(tb table, size int64, metric Metric) float64 {
	pick := func(p probe) float64 {
		if metric == MaxBandwidth {
			return p.bandwidth
		}
		return float64(p.latency)
	}
	if p, ok := tb.probes[size]; ok {
		return pick(p)
	}
	lo, hi := a.sizes[0], a.sizes[len(a.sizes)-1]
	if size <= lo {
		return pick(tb.probes[lo])
	}
	if size >= hi {
		return pick(tb.probes[hi])
	}
	for i := 1; i < len(a.sizes); i++ {
		if a.sizes[i] >= size {
			s0, s1 := a.sizes[i-1], a.sizes[i]
			v0, v1 := pick(tb.probes[s0]), pick(tb.probes[s1])
			f := (math.Log(float64(size)) - math.Log(float64(s0))) /
				(math.Log(float64(s1)) - math.Log(float64(s0)))
			return v0 + f*(v1-v0)
		}
	}
	return pick(tb.probes[hi])
}

// Recommend returns the best candidate for the message size, placement,
// and metric, with the measured value that won.
func (a *Advisor) Recommend(size int64, inter bool, metric Metric) (Candidate, float64) {
	best := Candidate{}
	var bestVal float64
	first := true
	for _, tb := range a.tables[inter] {
		v := a.valueAt(tb, size, metric)
		better := v < bestVal
		if metric == MaxBandwidth {
			better = v > bestVal
		}
		if first || better {
			best, bestVal, first = tb.cand, v, false
		}
	}
	return best, bestVal
}

// Crossover reports the smallest probed size at which the recommendation
// changes away from the small-message winner, or 0 if one candidate wins
// everywhere — quantifying §II-C's "no single library wins" observation.
func (a *Advisor) Crossover(inter bool, metric Metric) int64 {
	firstWinner, _ := a.Recommend(a.sizes[0], inter, metric)
	for _, s := range a.sizes[1:] {
		if w, _ := a.Recommend(s, inter, metric); w != firstWinner {
			return s
		}
	}
	return 0
}

// Report renders the full recommendation table for the machine.
func (a *Advisor) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Backend advisor for %s ==\n", a.model.Name)
	for _, inter := range []bool{false, true} {
		fmt.Fprintf(&b, "%-12s %-22s %-22s\n", bench.Placement(inter), "best latency", "best bandwidth")
		for _, s := range a.sizes {
			lw, lv := a.Recommend(s, inter, MinLatency)
			bw, bv := a.Recommend(s, inter, MaxBandwidth)
			fmt.Fprintf(&b, "%-12s %-14v %6.2fus %-14v %6.2fGB/s\n",
				bench.HumanBytes(s), lw, sim.Duration(lv).Micros(), bw, bv/1e9)
		}
	}
	return b.String()
}
