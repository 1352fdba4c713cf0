package bench

// Chaos benchmarking: severity sweeps of the network microbenchmarks under
// a fault plan, reporting how ping-pong latency and windowed bandwidth
// degrade per backend as the injected fault severity grows. This is the
// measurement core of uniconn chaos.

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ChaosPoint is one measurement of a severity sweep.
type ChaosPoint struct {
	Severity float64
	// Latency is the one-way ping-pong latency under the plan.
	Latency sim.Duration
	// Bandwidth is the windowed one-way bandwidth (bytes/s) under the plan.
	Bandwidth float64
	// Transfers and transferBytes summarize the latency run's fabric
	// activity, from the trace log.
	Transfers     int
	transferBytes int64
}

// LatencyFactor reports degradation relative to a baseline latency.
func (p ChaosPoint) LatencyFactor(baseline sim.Duration) float64 {
	if baseline <= 0 {
		return 1
	}
	return float64(p.Latency) / float64(baseline)
}

// BandwidthFactor reports the retained fraction of a baseline bandwidth.
func (p ChaosPoint) BandwidthFactor(baseline float64) float64 {
	if baseline <= 0 {
		return 1
	}
	return p.Bandwidth / baseline
}

// faultedPath reports the path kind a chaos sweep of this configuration
// stresses: the inter-node route when Inter is set, the intra-node route
// otherwise.
func (cfg NetConfig) faultedPath() fabric.Path {
	if cfg.Inter {
		return fabric.PathInter
	}
	return fabric.PathIntra
}

// GeneratedPlans is the randomized plan source of a chaos sweep (ChaosSweep's
// planFor): per severity, the seed-deterministic plan of link faults, NIC
// stall windows and slow ranks that faults.Generate draws over the run's
// two-rank fabric view.
func (cfg NetConfig) GeneratedPlans(seed uint64) func(severity float64) *faults.Plan {
	fc := cfg.model().FabricConfig(2)
	return func(s float64) *faults.Plan { return faults.Generate(seed, s, fc, sim.Second) }
}

// ChaosSweep measures the configuration once per severity, with the plan
// produced by planFor injected into both the latency and the bandwidth run.
// planFor(0) should return an empty plan so the first point of a [0, ...]
// sweep is the healthy baseline. A nil planFor uses faults.Degrade on the
// configuration's benchmarked path.
//
// Severities are independent cells, fanned out over the observed sweep: each
// cell builds its own plan and instruments, so planFor must return a fresh
// plan per call (both built-in plan sources do). obs decides what the
// latency run of each severity records beyond the span log the transfer
// counts need (the bandwidth run reuses the plan but records nothing); the
// cells' profiles come back alongside the points. Results are collected by
// severity index and are bit-identical to serial execution; on failure the
// points and profiles preceding the first failing severity are returned with
// the error, exactly as a serial sweep would.
func ChaosSweep(cfg NetConfig, severities []float64, planFor func(severity float64) *faults.Plan, obs *Observe) ([]ChaosPoint, []CellProfile, error) {
	if planFor == nil {
		path := cfg.faultedPath()
		planFor = func(s float64) *faults.Plan { return faults.Degrade(path, s) }
	}
	return sweepObserved(obs, len(severities), func(i int, col *Collector) (ChaosPoint, CellProfile, error) {
		sev := severities[i]
		run := cfg
		run.faults = planFor(sev)
		run.metrics, run.trace = col.Metrics, col.Trace
		if run.trace == nil {
			run.trace = trace.New() // private: counted below, never frozen
		}
		lat, rep, err := LatencyRun(run)
		if err != nil {
			return ChaosPoint{}, CellProfile{}, fmt.Errorf("chaos severity %g: latency: %w", sev, err)
		}
		pt := ChaosPoint{Severity: sev, Latency: lat}
		for _, s := range run.trace.Filter(trace.KindTransfer) {
			pt.Transfers++
			pt.transferBytes += s.Bytes
		}
		prof := col.Finish(fmt.Sprintf("severity/%g", sev), rep.End, fmt.Sprintf("one-way latency %s", lat))
		run.metrics, run.trace = nil, nil
		if pt.Bandwidth, _, err = bandwidthRun(run); err != nil {
			return pt, prof, fmt.Errorf("chaos severity %g: bandwidth: %w", sev, err)
		}
		return pt, prof, nil
	})
}
