package bench

// Recovery-aware chaos benchmarking: run a fixed-length iterative allreduce
// workload under a hard-fault plan (rank crashes, dead links) and measure
// whether the survivors complete by revoking and shrinking the communicator,
// and how long the recovery takes. This is the measurement core of
// uniconn chaos -recover.

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// recoveryConfig describes one recovery chaos run: an nGPUs-rank job that
// iterates compute + allreduce under the plan, recovering from declared rank
// failures with Revoke + Shrink.
type recoveryConfig struct {
	model   *machine.Model
	backend core.BackendID
	// nGPUs is the rank count (default 8).
	nGPUs int
	// plan is the injected fault scenario (typically faults.GenerateHard).
	// When its Watchdog is zero, a generous one is armed so a genuinely
	// stuck run still fails with sim.TimeoutError instead of hanging.
	plan *faults.Plan
	// iters is the fixed iteration count every rank runs (default 48). The
	// loop condition is an iteration count, never virtual time: survivors
	// must agree on when the workload ends even after a recovery skews
	// their clocks.
	iters int
	// count is the allreduce element count (default 1024 float64s = 8 KiB).
	count int
	// horizon paces the compute phase: each iteration advances
	// horizon/iters before communicating (default 4 ms), which also scales
	// the generated plan's fault windows.
	horizon sim.Duration
	// flightDepth, when positive, installs a flight recorder of that depth
	// on the engine and captures the post-mortem dump (written on abort,
	// watchdog timeout, or a hard fault) into RecoveryPoint.FlightDump.
	flightDepth int
}

// RecoveryPoint is one measurement of a recovery sweep.
type RecoveryPoint struct {
	Severity float64
	// Crashes is the number of distinct ranks the run declared failed;
	// Survivors is the rest.
	Crashes   int
	Survivors int
	// Completed reports whether every survivor finished all iterations
	// without an unexpected error.
	Completed bool
	// Recoveries is the maximum number of Revoke+Shrink rounds any
	// survivor ran.
	Recoveries int
	// DetectLatency is the failure detector's delay for the earliest
	// crash: declaration time minus crash time (in [lease/2, lease)).
	DetectLatency sim.Duration
	// Failovers counts transfers the fabric redirected onto fallback routes
	// or steered around dead switches/inter-switch links; on a switched
	// topology with an injected switch crash it must be positive.
	Failovers int
	// RecoveryLatency is the longest Revoke+Shrink+realign span measured
	// on any survivor, from catching the failure to resuming iterations.
	RecoveryLatency sim.Duration
	// End is the virtual completion time of the run.
	End sim.Time
	// checksum is the lowest-rank survivor's final allreduce result sum,
	// the value the determinism tests compare across worker counts.
	checksum float64
	// Err records a run-level failure (timeout, unexpected abort); empty
	// on success.
	Err string
	// FlightDump is the flight recorder post-mortem (empty unless the run
	// both enabled recording via recoveryConfig.flightDepth and hit a hard
	// fault or run-level error). Deterministic: the dump derives entirely
	// from virtual time.
	FlightDump string `json:"flight_dump,omitempty"`
}

// recoveryRank is one rank's slot of the shared result table. The simulation
// engine is cooperatively scheduled, so plain writes are race-free.
type recoveryRank struct {
	iters      int
	recoveries int
	recLat     sim.Duration
	checksum   float64
	err        error
}

// runRecovery executes one recovery chaos run with col's instruments and
// reports what happened. Run-level failures are reported in the point's Err
// field, so sweeps record broken cells instead of aborting. With live
// telemetry on, the run's recorder is attached to the tracker's flight board
// under label; that alone does not populate FlightDump, so live observation
// never changes the sweep's recorded results.
func runRecovery(cfg recoveryConfig, col *collector, label string) RecoveryPoint {
	if cfg.nGPUs <= 0 {
		cfg.nGPUs = 8
	}
	if cfg.iters <= 0 {
		cfg.iters = 48
	}
	if cfg.count <= 0 {
		cfg.count = 1024
	}
	if cfg.horizon <= 0 {
		cfg.horizon = 4 * sim.Millisecond
	}
	var pt RecoveryPoint

	plan := cfg.plan
	if plan != nil && plan.Watchdog == 0 {
		wp := *plan
		wp.Watchdog = 200 * cfg.horizon
		plan = &wp
	}

	ranks := make([]recoveryRank, cfg.nGPUs)
	pace := cfg.horizon / sim.Duration(cfg.iters)
	iters, count := cfg.iters, cfg.count

	main := func(env *core.Env) {
		rank := env.WorldRank()
		st := &ranks[rank]
		env.SetDevice(env.NodeRank())
		world := core.NewCommunicator(env)
		comm := world
		s := env.NewStream("recovery")
		coord := core.NewCoordinator(env, core.PureHost, s)
		p := env.Proc()
		in := core.Alloc[float64](env, count)
		out := core.Alloc[float64](env, count)
		for i := range in.Data() {
			in.Data()[i] = float64(rank + i%7)
		}
		next := core.Alloc[uint64](env, 1)
		align := core.Alloc[uint64](env, 1)

		for it := 0; it < iters; {
			err := env.Try(func() {
				p.Advance(pace) // the compute phase
				core.AllReduce(coord, gpu.ReduceSum, in.Base(), out.Base(), count, comm)
				env.StreamSynchronize(s)
			})
			if err == nil {
				it++
				st.iters = it
				continue
			}
			var rf *sim.RankFailedError
			if !errors.As(err, &rf) {
				st.err = err
				return
			}
			// Recovery: revoke the broken handle, shrink from the stable
			// world communicator, clear the stream's error state, and agree
			// on the next iteration (survivors may have been interrupted at
			// different points). A second failure mid-recovery aborts the
			// whole sequence out of Try and retries at the new epoch.
			recStart := p.Now()
			for {
				rerr := env.Try(func() {
					comm.Revoke()
					comm = world.Shrink()
					env.ResetStream(s)
					next.Data()[0] = uint64(it)
					core.AllReduce(coord, gpu.ReduceMax, next.Base(), align.Base(), 1, comm)
					env.StreamSynchronize(s)
				})
				if rerr == nil {
					break
				}
				if !errors.As(rerr, &rf) {
					st.err = rerr
					return
				}
			}
			it = int(align.Data()[0])
			st.iters = it
			st.recoveries++
			if d := p.Now().Sub(recStart); d > st.recLat {
				st.recLat = d
			}
		}
		sum := 0.0
		for _, v := range out.Data() {
			sum += v
		}
		st.checksum = sum
	}

	// Flight recording: an explicit flightDepth captures the post-mortem
	// into the point; a live Attach hook alone observes without recording.
	var flightBuf bytes.Buffer
	var flight *core.FlightConfig
	attach := col.live.Flight().Attacher(label) // nil without live telemetry
	if cfg.flightDepth > 0 {
		flight = &core.FlightConfig{Depth: cfg.flightDepth, Sink: &flightBuf, Attach: attach}
	} else if attach != nil {
		flight = &core.FlightConfig{Attach: attach}
	}

	rep, err := core.Launch(core.Config{
		Model: cfg.model, NGPUs: cfg.nGPUs, Backend: cfg.backend, Faults: plan,
		Metrics: col.metrics, Flight: flight,
	}, main)
	pt.FlightDump = flightBuf.String()
	if err != nil {
		pt.Err = err.Error()
		return pt
	}
	pt.End = rep.End

	// Fault accounting comes from the report — the run's own record of who
	// crashed, when the detector declared it, and how often the fabric
	// rerouted — instead of re-deriving it from the plan.
	dead := map[int]bool{}
	for _, r := range rep.Faults.CrashedRanks {
		dead[r] = true
	}
	pt.Crashes = len(rep.Faults.CrashedRanks)
	pt.Survivors = cfg.nGPUs - pt.Crashes
	pt.DetectLatency = rep.Faults.FirstDetectLatency
	pt.Failovers = rep.Faults.Failovers

	completed := true
	for r := 0; r < cfg.nGPUs; r++ {
		if dead[r] {
			continue
		}
		st := &ranks[r]
		if st.err != nil && pt.Err == "" {
			pt.Err = fmt.Sprintf("rank %d: %v", r, st.err)
		}
		if st.iters < cfg.iters {
			completed = false
		}
		if st.recoveries > pt.Recoveries {
			pt.Recoveries = st.recoveries
		}
		if st.recLat > pt.RecoveryLatency {
			pt.RecoveryLatency = st.recLat
		}
	}
	pt.Completed = completed && pt.Err == ""
	for r := 0; r < cfg.nGPUs; r++ {
		if !dead[r] {
			pt.checksum = ranks[r].checksum
			break
		}
	}
	return pt
}

// RecoverySweep measures one backend's recovery behaviour across a severity
// ramp: each severity builds its hard-fault plan with faults.GenerateHard
// (crashes appear from severity 0.5, a dead link from 0.75; on a switched
// topology — carried by m.Topology — also a crashed aggregation switch or
// dead global channel for adaptive routing to steer around) and runs
// runRecovery. Cells are one sweep; results are bit-identical at any
// GOMAXPROCS. Broken cells are reported in their point's Err field rather
// than aborting the sweep.
//
// Observability never changes a point except for FlightDump: a positive
// flightDepth enables per-cell flight recording, and a cell's post-mortem
// lands there; with a live tracker on obs (StartLive) the sweep reports to
// it under obs's label, each cell's recorder is attached to the tracker's
// flight board and its collector feeds its metrics into the live aggregate,
// like every other observed cell.
func RecoverySweep(obs *Observe, m *machine.Model, backend core.BackendID, nGPUs int, severities []float64, seed uint64, flightDepth int) []RecoveryPoint {
	horizon := 4 * sim.Millisecond
	fc := m.FabricConfig(m.NodesFor(nGPUs))
	pts, _, _ := sweep(obs, len(severities), func(i int, col *collector) (RecoveryPoint, CellProfile, error) {
		sev := severities[i]
		label := fmt.Sprintf("%s sev=%.2f", backend, sev)
		pt := runRecovery(recoveryConfig{
			model: m, backend: backend, nGPUs: nGPUs, horizon: horizon, flightDepth: flightDepth,
			plan: faults.GenerateHard(seed, sev, fc, nGPUs, horizon),
		}, col, label)
		pt.Severity = sev
		return pt, col.finish(label, pt.End), nil
	})
	return pts
}
