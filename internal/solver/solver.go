// Package solver holds what the paper's two applications (§VI-C/D: the
// Jacobi stencil in solver/jacobi, Conjugate Gradient in solver/cg) share
// below their numerics: the five implementations Table II compares, which
// backend each boots, and the one launch that runs an implementation's rank
// body on every GPU and reports the slowest rank.
package solver

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Variant selects one implementation.
type Variant int

// The implementation variants (Table II rows).
const (
	NativeMPI Variant = iota
	NativeGPUCCL
	NativeGPUSHMEMHost
	NativeGPUSHMEMDevice
	Uniconn
)

// names is each variant's String, as the outputs of record print it.
var names = [...]string{"MPI-Native", "GPUCCL-Native", "GPUSHMEM-Host-Native", "GPUSHMEM-Device-Native", "Uniconn"}

// natives is the backend each native variant's Environment boots; UNICONN
// boots the configured one.
var natives = [...]core.BackendID{core.MPIBackend, core.GpucclBackend, core.GpushmemBackend, core.GpushmemBackend}

func (v Variant) String() string {
	if v < 0 || v > Uniconn {
		return fmt.Sprintf("Variant(%d)", int(v))
	}
	return names[v]
}

// Bodies is one application's rank body per variant, in Variant order.
type Bodies[C, R any] [Uniconn + 1]func(C, *core.Env) R

// Launch runs bodies[v] on every rank through core.LaunchLoops (warmup and
// full as there), on v's backend: c.Backend for UNICONN, whose launch mode is
// mode. It first refuses what no application runs: no GPU, an unknown
// variant, a UNICONN device mode off GPUSHMEM. It returns each rank's result,
// the slowest rank's elapsed time, the run's virtual end, and how many
// iterations rank 0 simulated (-1 without a fast-forward controller).
func Launch[C any, R interface{ Elapsed() sim.Duration }](app string, cfg C, v Variant, c core.Config,
	mode core.LaunchMode, warmup int, full bool, bodies *Bodies[C, R]) (perRank []R, slowest sim.Duration, end sim.Time, simulated int, err error) {
	switch {
	case c.NGPUs < 1:
		return nil, 0, 0, -1, fmt.Errorf("%s: NGPUs %d: need at least 1 GPU", app, c.NGPUs)
	case v < 0 || v > Uniconn:
		return nil, 0, 0, -1, fmt.Errorf("%s: unknown implementation %v", app, v)
	case v == Uniconn && mode != core.PureHost && c.Backend != core.GpushmemBackend:
		return nil, 0, 0, -1, fmt.Errorf("%s: %v requires the GPUSHMEM backend", app, mode)
	}
	if v != Uniconn {
		c.Backend = natives[v]
	}
	perRank = make([]R, c.NGPUs)
	rep, simulated, err := core.LaunchLoops(c, warmup, full, func(env *core.Env) {
		perRank[env.WorldRank()] = bodies[v](cfg, env)
	})
	if err != nil {
		return nil, 0, 0, simulated, err
	}
	for _, r := range perRank {
		slowest = max(slowest, r.Elapsed())
	}
	return perRank, slowest, rep.End, simulated, nil
}
