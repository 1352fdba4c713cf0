package core

import (
	"errors"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/gpuccl"
	"repro/internal/gpushmem"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Communicator encapsulates the process group (paper §IV-C), analogous to
// an MPI communicator or an OpenSHMEM team. It exposes rank/size queries,
// host- and stream-side barriers, Split, and a device-side handle.
type Communicator struct {
	env *Env

	mpic *mpi.Comm
	cclc *gpuccl.Comm
	pe   *gpushmem.PE
	team *gpushmem.Team // world team by default on the GPUSHMEM backend

	// epoch is the failure epoch the communicator was built in; once the
	// job's epoch moves past it, operations abort with the failure instead
	// of parking on a dead rank. revoked marks a handle explicitly poisoned
	// by Revoke during recovery.
	epoch   int
	revoked bool
}

// ErrRevoked is the error aborted out of operations on a communicator whose
// handle was revoked (the ULFM MPI_Comm_revoke analogue). Detect it with
// errors.Is.
var ErrRevoked = errors.New("core: communicator revoked")

// check aborts the calling operation if the communicator is stale: built in
// an earlier failure epoch, or explicitly revoked. Every communication entry
// point calls it after dispatch, so survivors that missed the detector's
// interrupt (they were computing, not parked) still fail fast instead of
// blocking against a dead rank.
func (c *Communicator) check() {
	// Without a fault schedule the epoch never changes, and the clock is
	// left unread so the dispatch charge before it stays deferred.
	if j := c.env.job; j.sched != nil {
		now := c.env.p.Now()
		if j.epochAt(now) != c.epoch {
			if ferr := j.lastFailureAt(now); ferr != nil {
				sim.Abort(ferr)
			}
		}
	}
	if c.revoked {
		sim.Abort(fmt.Errorf("%w (epoch %d)", ErrRevoked, c.epoch))
	}
}

// NewCommunicator creates the world communicator for this rank
// (Communicator<Backend> comm in the paper's Listing 4).
func NewCommunicator(env *Env) *Communicator {
	env.dispatch()
	c := &Communicator{env: env, epoch: env.job.epochAt(env.p.Now())}
	c.mpic = env.job.mpiWorld.CommWorld(env.rank)
	switch env.Backend() {
	case GpucclBackend:
		c.cclc = env.job.cclWorld.Comm(env.rank)
	case GpushmemBackend:
		c.pe = env.job.shmemWorld.PE(env.rank)
		c.team = c.pe.WorldTeam()
	}
	return c
}

// GlobalRank reports this process's rank within the communicator.
func (c *Communicator) GlobalRank() int {
	switch {
	case c.cclc != nil:
		return c.cclc.Rank()
	case c.team != nil:
		return c.team.Rank()
	default:
		return c.mpic.Rank()
	}
}

// GlobalSize reports the communicator size.
func (c *Communicator) GlobalSize() int {
	switch {
	case c.cclc != nil:
		return c.cclc.Size()
	case c.team != nil:
		return c.team.Size()
	default:
		return c.mpic.Size()
	}
}

// worldOf translates a communicator rank to a world rank (identity on MPI,
// whose communicator translates internally).
func (c *Communicator) worldOf(r int) int {
	if c.team != nil {
		return c.team.World(r)
	}
	return r
}

// Env reports the owning environment.
func (c *Communicator) Env() *Env { return c.env }

// Split partitions the communicator by color, ordered by key, like
// MPI_Comm_split / ncclCommSplit / shmem_team_split. Every member must call
// it; a negative color returns nil. The CPU-side (MPI) communicator is
// split alongside the GPU one, as real applications do for bootstrap.
func (c *Communicator) Split(color, key int) *Communicator {
	env := c.env
	env.dispatch()
	c.check()
	msub := c.mpic.Split(env.p, color, key)
	sub := &Communicator{env: env, mpic: msub, pe: c.pe, epoch: c.epoch}
	switch env.Backend() {
	case GpucclBackend:
		sub.cclc = c.cclc.Split(env.p, color, key)
		if sub.cclc == nil {
			return nil
		}
	case GpushmemBackend:
		sub.team = c.team.TeamSplit(env.p, color, key)
		if sub.team == nil {
			return nil
		}
	default:
		if msub == nil {
			return nil
		}
	}
	return sub
}

// Barrier synchronizes all ranks of the communicator with respect to the
// given stream (paper §IV-C: barriers on both host and device sides). The
// backend determines the mechanism:
//
//   - MPI: drain the stream, then a host barrier;
//   - GPUCCL: a zero-element AllReduce enqueued on the stream (the library
//     has no native barrier);
//   - GPUSHMEM: nvshmemx_barrier_all_on_stream.
func (c *Communicator) Barrier(s *gpu.Stream) {
	env := c.env
	env.dispatch()
	c.check()
	switch env.Backend() {
	case GpucclBackend:
		b := gpu.AllocBuffer[uint64](env.dev, 1)
		c.cclc.AllReduce(env.p, s, b.Whole(), b.Whole(), gpu.ReduceMax)
	case GpushmemBackend:
		c.team.BarrierOnStream(env.p, s)
	default:
		s.Synchronize(env.p)
		c.mpic.Barrier(env.p)
	}
}

// HostBarrier synchronizes all ranks on the host side only (no stream
// involvement); all backends bootstrap it over the CPU library.
func (c *Communicator) HostBarrier() {
	c.env.dispatch()
	c.check()
	c.mpic.Barrier(c.env.p)
}

// Revoke poisons this communicator handle: every subsequent operation on it
// aborts with ErrRevoked (MPI_Comm_revoke / ncclCommAbort in spirit). It is
// local and immediate — the failure detector has already interrupted the
// other survivors, so no extra propagation round is needed in the simulated
// fabric — and it clears any failure notification still pending on the
// calling process so recovery code can run undisturbed.
func (c *Communicator) Revoke() {
	c.env.dispatch()
	c.env.p.ClearInterrupt()
	c.revoked = true
}

// Shrink builds a working communicator over the surviving ranks, the ULFM
// MPI_Comm_shrink analogue. Call it on a stable parent (the world
// communicator) after a failure: every survivor derives the same dense
// group from the globally agreed dead set, the CPU-side communicator is
// reconstructed directly, and the GPU-side library is torn down and
// re-initialized over the survivors (abort-and-reinit on GPUCCL, team
// reconstruction on GPUSHMEM). The call synchronizes the survivors; the
// returned communicator is stamped with the current failure epoch.
//
// If no failure has been declared since the communicator was built (and it
// was not revoked), Shrink returns the receiver unchanged.
func (c *Communicator) Shrink() *Communicator {
	env := c.env
	env.dispatch()
	env.p.ClearInterrupt()
	j := env.job
	epoch := j.epochAt(env.p.Now())
	if epoch == c.epoch && !c.revoked {
		return c
	}
	dead := map[int]bool{}
	for _, r := range env.FailedRanks() {
		dead[r] = true
	}
	// The generation disambiguates successive shrinks in the backends'
	// matching keys; epoch+1 keeps it >= 1 even for a revoked-but-healthy
	// shrink. A second failure declared mid-shrink interrupts the survivors
	// parked in the shrink barrier; the env.Try recovery loop retries at
	// the new epoch, converging on a consistent generation.
	gen := epoch + 1
	sub := &Communicator{env: env, pe: c.pe, epoch: epoch}
	sub.mpic = c.mpic.ShrinkExcluding(env.p, dead, gen)
	switch env.Backend() {
	case GpucclBackend:
		sub.cclc = c.cclc.Shrink(env.p, dead, gen)
	case GpushmemBackend:
		sub.team = c.team.Shrink(env.p, dead, gen)
	}
	return sub
}

// DeviceComm is the GPU-resident communicator handle returned by ToDevice,
// usable inside kernels for the device-side API (comm.toDevice() in the
// paper's Listing 4).
type DeviceComm struct {
	c *Communicator
}

// ToDevice returns a handle valid for use within GPU kernels. It requires a
// backend with device-side support.
func (c *Communicator) ToDevice() *DeviceComm {
	c.env.dispatch()
	return &DeviceComm{c: c}
}

// GlobalRank reports the rank from device code.
func (d *DeviceComm) GlobalRank() int { return d.c.GlobalRank() }

// GlobalSize reports the size from device code.
func (d *DeviceComm) GlobalSize() int { return d.c.GlobalSize() }
