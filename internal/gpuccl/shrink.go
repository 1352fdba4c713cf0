package gpuccl

// Abort-and-reinit recovery, mirroring how real NCCL applications survive a
// rank failure: ncclCommAbort tears down the broken communicator (its
// matching state is discarded) and a fresh communicator is bootstrapped
// over the survivors. Shrink fuses both steps into one collective call made
// by every survivor.

import (
	"fmt"

	"repro/internal/lockstep"
	"repro/internal/sim"
)

// shrinkInst coordinates one collective Shrink across the survivors.
type shrinkInst struct {
	rdv *sim.Rendezvous
	id  uint64
}

// Shrink builds a dense communicator over the members of c not in dead,
// preserving relative rank order. All survivors must call it with the same
// dead set and generation (gen is bumped once per failure epoch by the
// caller); the call blocks until every survivor has arrived, like the
// bootstrap phase of ncclCommInitRank. The parent communicator is aborted:
// its point-to-point matching state is discarded, and the child's fresh id
// means stale collectives of the old communicator can never pair with new
// traffic.
func (c *Comm) Shrink(p *sim.Proc, dead map[int]bool, gen int) *Comm {
	w := c.w
	child := &Comm{w: w, dev: c.dev, g: c.g.Survivors(dead)}
	skey := lockstep.Key{Group: c.g.ID, Seq: uint64(gen), Kind: "comm-shrink"}
	si := w.shared.shrinks[skey]
	if si == nil {
		// First survivor in: abort the parent and allocate the child
		// communicator identity.
		for k := range w.shared.pairs {
			if k.comm == c.g.ID {
				delete(w.shared.pairs, k)
			}
		}
		w.shared.nextCommID++
		si = &shrinkInst{
			rdv: sim.NewRendezvous(fmt.Sprintf("ccl-shrink-%d-%d", c.g.ID, gen), child.Size()),
			id:  w.shared.nextCommID,
		}
		w.shared.shrinks[skey] = si
	}
	// Teardown plus bootstrap exchange cost, then all survivors synchronize
	// before the child communicator is usable.
	p.Advance(c.profile().CallOverhead * sim.Duration(8))
	si.rdv.Arrive(p)
	child.g.ID = si.id
	return child
}
