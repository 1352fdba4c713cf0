package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Network microbenchmarks adapted from the OSU suite (paper §VI-B):
// ping-pong latency and windowed one-way bandwidth between two GPUs, either
// within a node or across two nodes, for every (library, API) combination,
// in both native and UNICONN form.

// NetConfig selects one microbenchmark configuration.
type NetConfig struct {
	Model   *machine.Model
	Backend core.BackendID
	// API selects host- or device-initiated communication. Device
	// requires the GPUSHMEM backend.
	API machine.API
	// Native selects the library's own API; false selects UNICONN with
	// that backend.
	Native bool
	// Inter selects two GPUs on different nodes (otherwise same node).
	Inter bool
	// Bytes is the message size.
	Bytes int64

	// Iters/Warmup override the defaults (paper §VI-B counts, scaled for
	// the deterministic simulator where more repetitions add no
	// information). Zero selects the defaults.
	Iters, Warmup int
	// window is the number of in-flight messages of the bandwidth test
	// (default 64, as in the paper).
	window int

	// Shards is ignored; it stays only until benchmark/ stops setting it (ROADMAP 19).
	Shards int

	// faults, when non-nil, injects a fault plan into the run (chaos
	// benchmarking; see internal/faults).
	faults *faults.Plan
	// trace, when non-nil, records the run's spans.
	trace *trace.Log
	// metrics, when non-nil, collects the run's counters (see
	// internal/metrics; one registry per run, never shared across cells).
	metrics *metrics.Registry

	// functional gives the cell real message buffers instead of phantom
	// ones. No figure reads a net cell's payload, so nothing outside this
	// package's tests sets it: TestPhantomEqualsReal runs every cell both
	// ways and demands the same answer.
	functional bool
	// full turns fast-forward off, for the tests that compare a
	// fast-forwarded run with the full one.
	full bool
}

// payload is the cell's message-vector allocator (see payload).
func (cfg NetConfig) payload() payload { return payload{cfg.functional} }

// validate reports configuration errors.
func (cfg NetConfig) validate() error {
	if cfg.Model == nil {
		return fmt.Errorf("bench: nil model")
	}
	if cfg.API == machine.APIDevice && cfg.Backend != core.GpushmemBackend {
		return fmt.Errorf("bench: device API requires the GPUSHMEM backend")
	}
	if cfg.Backend == core.GpushmemBackend && !cfg.Model.HasGPUSHMEM {
		return fmt.Errorf("bench: %s has no GPUSHMEM", cfg.Model.Name)
	}
	if cfg.Bytes < 8 || cfg.Bytes%8 != 0 {
		return fmt.Errorf("bench: message size must be a positive multiple of 8 (got %d)", cfg.Bytes)
	}
	return nil
}

// counts resolves iteration counts. The paper uses 100K/10K below 8 KiB and
// 10K/1K above for latency, and 1000/100 and 200/20 windows for bandwidth.
// The simulator is deterministic, so the defaults are smaller: latency's
// 1000/100 and 100/10 are the paper's divided by 100, bandwidth's 100/10 and
// 20/2 the paper's divided by 10. Iters/Warmup raise them to paper-exact
// counts.
func (cfg NetConfig) counts(bandwidth bool) (iters, warmup, window int) {
	iters, warmup = cfg.Iters, cfg.Warmup
	if iters == 0 {
		if bandwidth {
			if cfg.Bytes < 8<<10 {
				iters, warmup = 100, 10
			} else {
				iters, warmup = 20, 2
			}
		} else {
			if cfg.Bytes < 8<<10 {
				iters, warmup = 1000, 100
			} else {
				iters, warmup = 100, 10
			}
		}
	}
	window = cfg.window
	if window == 0 {
		window = 64
	}
	return iters, warmup, window
}

// model returns the machine to launch on: inter-node runs use a one-GPU-
// per-node view of the same machine so the two ranks land on two nodes.
func (cfg NetConfig) model() *machine.Model {
	if !cfg.Inter {
		return cfg.Model
	}
	m := *cfg.Model
	m.GPUsPerNode = 1
	m.NICsPerNode = 1
	return &m
}

// Placement names where the two ranks of a microbenchmark sit.
func Placement(inter bool) string {
	if inter {
		return "inter-node"
	}
	return "intra-node"
}

// LatencyRun runs the ping-pong benchmark and returns the one-way latency
// and the run report (the profiler needs the run's end time as its
// attribution horizon).
func LatencyRun(cfg NetConfig) (sim.Duration, core.Report, error) {
	lat, rep, _, err := cfg.run(false)
	return sim.Duration(lat), rep, err
}

// bandwidthRun runs the windowed one-way benchmark and returns bytes/second
// and the run report.
func bandwidthRun(cfg NetConfig) (float64, core.Report, error) {
	bw, rep, _, err := cfg.run(true)
	return bw, rep, err
}

// run launches the two ranks of the latency or bandwidth benchmark and
// returns its headline value (one-way latency in ns, or bytes/second), the
// run report and how many iterations rank 0 simulated (-1 when the cell ran
// without a fast-forward controller).
func (cfg NetConfig) run(bandwidth bool) (float64, core.Report, int, error) {
	if err := cfg.validate(); err != nil {
		return 0, core.Report{}, -1, err
	}
	iters, warmup, window := cfg.counts(bandwidth)
	lc := core.Config{Model: cfg.model(), NGPUs: 2, Backend: cfg.Backend,
		Faults: cfg.faults, Trace: cfg.trace, Metrics: cfg.metrics}
	var rt sim.Duration
	rep, simulated, err := core.LaunchLoops(lc, warmup, cfg.full || cfg.functional, func(env *core.Env) {
		var d sim.Duration
		if bandwidth {
			d = cfg.bandwidthRank(env, iters, warmup, window)
		} else {
			d = cfg.latencyRank(env, iters, warmup)
		}
		if env.WorldRank() == 0 {
			rt = d
		}
	})
	switch {
	case err != nil:
		return 0, rep, simulated, err
	case bandwidth:
		return float64(iters) * float64(window) * float64(cfg.Bytes) / rt.Seconds(), rep, simulated, nil
	default:
		return float64(rt / sim.Duration(2*iters)), rep, simulated, nil
	}
}

// latencyRank dispatches to the per-variant rank body and returns the timed
// loop duration (valid on rank 0).
func (cfg NetConfig) latencyRank(env *core.Env, iters, warmup int) sim.Duration {
	switch {
	case cfg.Native && cfg.Backend == core.MPIBackend:
		return latencyNativeMPI(cfg, env, iters, warmup)
	case cfg.Native && cfg.Backend == core.GpucclBackend:
		return latencyNativeCCL(cfg, env, iters, warmup)
	case cfg.Native && cfg.API == machine.APIDevice:
		return latencyNativeShmemDevice(cfg, env, iters, warmup)
	case cfg.Native:
		return latencyNativeShmemHost(cfg, env, iters, warmup)
	case cfg.API == machine.APIDevice:
		return latencyUniconnDevice(cfg, env, iters, warmup)
	default:
		return latencyUniconnHost(cfg, env, iters, warmup)
	}
}

func (cfg NetConfig) bandwidthRank(env *core.Env, iters, warmup, window int) sim.Duration {
	switch {
	case cfg.Native && cfg.Backend == core.MPIBackend:
		return bandwidthNativeMPI(cfg, env, iters, warmup, window)
	case cfg.Native && cfg.Backend == core.GpucclBackend:
		return bandwidthNativeCCL(cfg, env, iters, warmup, window)
	case cfg.Native && cfg.API == machine.APIDevice:
		return bandwidthNativeShmemDevice(cfg, env, iters, warmup, window)
	case cfg.Native:
		return bandwidthNativeShmemHost(cfg, env, iters, warmup, window)
	case cfg.API == machine.APIDevice:
		return bandwidthUniconnDevice(cfg, env, iters, warmup, window)
	default:
		return bandwidthUniconnHost(cfg, env, iters, warmup, window)
	}
}
