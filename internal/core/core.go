// Package core implements UNICONN: a uniform, high-level communication
// layer for portable multi-GPU programming (Sağbili et al., CLUSTER 2025).
//
// The package provides the paper's four abstractions —
//
//   - Environment: backend initialization/teardown and device selection;
//   - Communicator: the process group, with host/device barriers and a
//     device-side handle (ToDevice);
//   - Memory: backend-appropriate allocation (symmetric heap on GPUSHMEM);
//   - Coordinator: GPU-kernel management (BindKernel/LaunchKernel under a
//     LaunchMode), operation grouping (CommStart/CommEnd), and the uniform
//     communication operations (Post/Acknowledge and the collective set of
//     the paper's Listing 7);
//
// over three interchangeable backends: GPU-aware MPI, GPUCCL (NCCL/RCCL),
// and GPUSHMEM (NVSHMEM). The C++ original selects the backend with a
// template parameter at compile time; the Go port selects it in the Launch
// configuration, with the same property that application code is unchanged
// when switching (see examples/jacobi).
//
// Because UNICONN's claims are about API semantics and overhead, the layer
// deliberately charges its own dispatch costs (decision logic, GPU-stream
// queries around blocking MPI calls) from the machine model, so
// native-vs-UNICONN comparisons reproduce the paper's Figures 3-6.
package core

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/gpuccl"
	"repro/internal/gpushmem"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BackendID selects a communication backend, mirroring the paper's
// MPIBackend / GpucclBackend / GpushmemBackend types.
type BackendID int

// The supported backends.
const (
	MPIBackend BackendID = iota
	GpucclBackend
	GpushmemBackend
)

func (b BackendID) String() string {
	switch b {
	case MPIBackend:
		return "MPI"
	case GpucclBackend:
		return "GPUCCL"
	case GpushmemBackend:
		return "GPUSHMEM"
	default:
		return fmt.Sprintf("BackendID(%d)", int(b))
	}
}

// Config describes one simulated UNICONN job.
type Config struct {
	// Model is the machine to simulate (machine.Perlmutter() etc.).
	Model *machine.Model
	// NGPUs is the number of ranks; one GPU per rank, packed onto nodes.
	NGPUs int
	// Backend selects the communication library.
	Backend BackendID
	// Trace, when non-nil, records kernel, stream-operation, and fabric
	// transfer spans for the whole run (see internal/trace).
	Trace *trace.Log
	// Faults, when non-nil, injects the plan's link degradation, NIC port
	// stalls, slow ranks, and virtual-time watchdog into the run (see
	// internal/faults). A run that exceeds the plan's watchdog returns a
	// *sim.TimeoutError.
	Faults *faults.Plan
	// Metrics, when non-nil, collects scheduler, fabric, protocol, and
	// fault counters for the run (see internal/metrics). Disabled (nil) by
	// default; the registry must not be shared between concurrent runs —
	// one registry per run, merged afterwards (see internal/bench/runner.go
	// for the sweep ownership rule).
	Metrics *metrics.Registry
	// Flight, when non-nil, installs a bounded flight recorder on the
	// engine and dumps a deterministic post-mortem to Flight.Sink when the
	// run errors or recovered from a hard fault (see flight.go). Disabled
	// (nil) by default; recording is zero-allocation, so enabling it does
	// not perturb the zero-alloc hot-path gates.
	Flight *FlightConfig
	// Shards is ignored; it stays only until benchmark/ stops setting it (ROADMAP 19).
	Shards int
}

// Validate reports whether the configuration is runnable; a model whose
// topology cannot hold the job's nodes is not.
func (cfg Config) Validate() error {
	if cfg.Model == nil {
		return fmt.Errorf("core: nil machine model")
	}
	if cfg.NGPUs < 1 {
		return fmt.Errorf("core: NGPUs = %d", cfg.NGPUs)
	}
	if cfg.Backend == GpushmemBackend && !cfg.Model.HasGPUSHMEM {
		return fmt.Errorf("core: %s has no GPUSHMEM implementation", cfg.Model.Name)
	}
	_, err := fabric.ResolveTopology(cfg.Model.Topology, cfg.Model.NodesFor(cfg.NGPUs))
	return err
}

// job is the shared state of one run.
type job struct {
	cfg     Config
	eng     *sim.Engine
	cluster *gpu.Cluster

	mpiWorld   *mpi.World
	cclWorld   *gpuccl.World
	shmemWorld *gpushmem.World

	// Hard-fault state (recovery.go): the rank processes for the crash
	// scheduler, and the static failure timetable (nil on crash-free runs)
	// every failure-state query is answered from.
	rankProcs []*sim.Proc
	sched     *failureSchedule

	// ff is the ranks' loop controller (Env.Loop), nil when every loop
	// runs every iteration.
	ff *fastForward
}

// FaultSummary summarises the hard faults of a completed run, so chaos CLIs
// and benchmarks read the outcome from the report instead of re-deriving it
// from the plan or metrics snapshots. Zero-valued on fault-free runs.
type FaultSummary struct {
	// CrashedRanks are the world ranks the plan killed, in ascending order.
	CrashedRanks []int
	// FirstDetectLatency is the failure detector's crash-to-declaration
	// delay for the earliest crash (zero without crashes).
	FirstDetectLatency sim.Duration
	// Failovers counts transfers redirected onto fallback routes or steered
	// around dead switches/links by adaptive routing.
	Failovers int
}

// Report summarises a completed run.
type Report struct {
	// End is the virtual time at which the last rank finished.
	End sim.Time
	// Topology is the resolved inter-node topology the run used, with
	// auto-sized parameters (fat-tree arity, dragonfly p/a/h) filled in.
	Topology fabric.TopologyConfig
	// Faults summarises the run's hard faults and their handling.
	Faults FaultSummary
}

// faultSummary builds the report's hard-fault summary after a run completes.
func (j *job) faultSummary() FaultSummary {
	var fs FaultSummary
	if j.sched != nil && len(j.sched.crashes) > 0 {
		earliest := 0
		for i, sc := range j.sched.crashes {
			fs.CrashedRanks = append(fs.CrashedRanks, sc.rank)
			if sc.at < j.sched.crashes[earliest].at {
				earliest = i
			}
		}
		sort.Ints(fs.CrashedRanks)
		fs.FirstDetectLatency = j.sched.crashes[earliest].latency
	}
	fs.Failovers = j.cluster.Fabric.FailoverTransfers()
	return fs
}

// Launch runs main once per rank, each in its own simulated process, and
// drives the simulation to completion. It is the moral equivalent of
// mpirun/srun for the simulated cluster.
func Launch(cfg Config, main func(env *Env)) (Report, error) { return launch(cfg, nil, main) }

// launch is Launch with ff as the ranks' loop controller.
func launch(cfg Config, ff *fastForward, main func(env *Env)) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	eng := sim.NewEngine()
	var cluster *gpu.Cluster
	defer func() {
		eng.Close()
		if cluster != nil {
			cluster.Release() // once every rank has unwound
		}
	}()
	flight := cfg.Flight.install(eng)
	cluster = gpu.NewCluster(eng, cfg.Model, cfg.NGPUs)
	j := &job{cfg: cfg, eng: eng, cluster: cluster, ff: ff}
	if cfg.Trace != nil {
		cluster.SetTrace(cfg.Trace)
	}
	// Metrics must be installed before the backend worlds are built: worlds
	// resolve their instruments from cluster.Metrics at construction.
	cluster.SetMetrics(cfg.Metrics)
	if f := cfg.Faults; f != nil {
		cluster.Fabric.LinkFault = f.LinkCostAt
		f.ApplyStalls(cluster.Fabric)
		f.ApplyHardFaults(cluster.Fabric)
		cluster.ComputeFault = f.ComputeFactor
		if f.Watchdog > 0 {
			eng.SetWatchdog(sim.Time(f.Watchdog))
		}
	}
	// MPI is always available: the paper's GPUCCL and GPUSHMEM setups
	// bootstrap over a CPU communication library (§IV-B).
	j.mpiWorld = mpi.NewWorld(cluster)
	switch cfg.Backend {
	case GpucclBackend:
		j.cclWorld = gpuccl.NewWorld(cluster)
	case GpushmemBackend:
		j.shmemWorld = gpushmem.NewWorld(cluster)
	}
	for r := range cluster.Devices {
		j.rankProcs = append(j.rankProcs, eng.Spawn(
			fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				env := newEnv(j, r, p)
				if ff != nil {
					ff.envs[r] = env
				}
				main(env)
			}))
	}
	if f := cfg.Faults; f != nil && len(f.Crashes) > 0 {
		j.sched = newFailureSchedule(f, cfg.NGPUs)
		j.armHardFaults()
	}
	if err := eng.Run(); err != nil {
		flight.dump(err.Error())
		return Report{}, err
	}
	rep := Report{End: eng.Now(), Topology: cluster.Fabric.Topology(), Faults: j.faultSummary()}
	if len(rep.Faults.CrashedRanks) > 0 {
		flight.dump("recovered from hard fault")
	}
	cluster.Fabric.PublishOccupancy(cfg.Metrics, rep.End) // nil-safe
	return rep, nil
}

// Env is the per-rank Environment abstraction (paper §IV-B): it initializes
// and finalizes the backend and owns device selection.
type Env struct {
	job  *job
	rank int
	p    *sim.Proc
	dev  *gpu.Device
}

func newEnv(j *job, rank int, p *sim.Proc) *Env {
	env := &Env{job: j, rank: rank, p: p, dev: j.cluster.Devices[rank]}
	// Backend initialization cost: a few host operations plus, for the
	// GPU-side libraries, their bootstrap exchange.
	env.p.Advance(10 * j.cfg.Model.HostOp)
	return env
}

// WorldRank reports the global rank of the process.
func (e *Env) WorldRank() int { return e.rank }

// WorldSize reports the total number of ranks.
func (e *Env) WorldSize() int { return e.job.cfg.NGPUs }

// NodeRank reports the node-local rank, used for device selection.
func (e *Env) NodeRank() int { return e.dev.Local }

// NodeSize reports the ranks per node.
func (e *Env) NodeSize() int { return e.job.cfg.Model.GPUsPerNode }

// SetDevice selects the GPU for this process. Ranks are packed one per
// device, so the only valid argument is NodeRank(), as in the paper's
// examples (env.SetDevice(local_rank)).
func (e *Env) SetDevice(local int) {
	if local != e.dev.Local {
		panic(fmt.Sprintf("core: SetDevice(%d) does not match the rank's device (local %d)",
			local, e.dev.Local))
	}
}

// Device exposes the selected simulated GPU.
func (e *Env) Device() *gpu.Device { return e.dev }

// Proc exposes the rank's simulated process (needed by benchmark harnesses
// that time with events).
func (e *Env) Proc() *sim.Proc { return e.p }

// Backend reports the configured backend.
func (e *Env) Backend() BackendID { return e.job.cfg.Backend }

// Model reports the machine model.
func (e *Env) Model() *machine.Model { return e.job.cfg.Model }

// NewStream creates a GPU stream on the rank's device.
func (e *Env) NewStream(name string) *gpu.Stream { return e.dev.NewStream(name) }

// DefaultStream returns the device's default stream.
func (e *Env) DefaultStream() *gpu.Stream { return e.dev.DefaultStream() }

// StreamSynchronize blocks the host until the stream drains
// (cudaStreamSynchronize through the vendor-agnostic macro layer). If an
// enqueued operation was poisoned by a rank failure, the recorded error is
// re-raised here on the host — the simulated analogue of the stream going
// into an error state — so an env.Try boundary observes device-side
// failures too.
func (e *Env) StreamSynchronize(s *gpu.Stream) {
	s.Synchronize(e.p)
	if err := s.TakeAborted(); err != nil {
		sim.Abort(err)
	}
}

// MPIComm exposes the rank's raw MPI communicator. It exists for the
// native baseline implementations that the paper compares UNICONN against
// (and for bootstrap); UNICONN applications use Communicator instead.
func (e *Env) MPIComm() *mpi.Comm { return e.job.mpiWorld.CommWorld(e.rank) }

// CCLComm exposes the rank's raw GPUCCL communicator (native baselines
// only; requires the GPUCCL backend).
func (e *Env) CCLComm() *gpuccl.Comm { return e.job.cclWorld.Comm(e.rank) }

// ShmemPE exposes the rank's raw GPUSHMEM processing element (native
// baselines only; requires the GPUSHMEM backend).
func (e *Env) ShmemPE() *gpushmem.PE { return e.job.shmemWorld.PE(e.rank) }

// uniconn returns the layer's own overhead model.
func (e *Env) uniconn() machine.UniconnCosts { return e.job.cfg.Model.Uniconn }

// dispatch charges UNICONN's per-operation decision logic, deferred
// (sim.Proc.Charge): every caller touches only its rank's own state before
// its next interaction with the simulation.
func (e *Env) dispatch() { e.p.Charge(e.uniconn().Dispatch) }
