package mpi

// ULFM-style communicator shrink (MPIX_Comm_shrink). Unlike Split, shrink
// cannot be built on an Allgather over the parent communicator: the dead
// ranks would have to participate. Real ULFM runs a fault-tolerant
// agreement protocol among the survivors; here the surviving membership is
// read from the shared failure state (every survivor is handed the same
// dead set by internal/core) and the agreement cost is charged explicitly,
// followed by a real barrier on the new context that synchronizes the
// survivors and validates the new communicator end to end.

import (
	"fmt"

	"repro/internal/lockstep"
	"repro/internal/sim"
)

// ShrinkExcluding builds a dense communicator over the members of c that
// are not in dead, preserving relative rank order. All survivors must call
// it with the same dead set and generation; gen (>= 1, bumped once per
// failure epoch) makes the derived context deterministic and distinct
// across repeated shrinks. The call synchronizes the survivors with a
// barrier on the new context before returning.
//
// Shrink contexts are negative (Split contexts are non-negative), so a
// shrunk communicator's traffic can never match stale traffic of any
// split-derived context.
func (c *Comm) ShrinkExcluding(p *sim.Proc, dead map[int]bool, gen int) *Comm {
	if gen < 1 || gen >= 4096 {
		panic(fmt.Sprintf("mpi: ShrinkExcluding generation %d outside [1, 4096)", gen))
	}
	group := c.asGroup().Survivors(dead)
	base := c.ctx
	if base < 0 {
		base = -base
	}
	nc := newComm(c.ep, -(base*4096 + gen), group.Members, group.Rank)
	// Agreement round: charge log2(n) call overheads for the survivor vote,
	// then synchronize for real on the new context.
	rounds := max(1, lockstep.Log2Ceil(group.Size))
	p.Advance(c.profile().CallOverhead * sim.Duration(2*rounds))
	nc.Barrier(p)
	return nc
}
