package gpuccl

// Communicator splitting, mirroring ncclCommSplit (NCCL ≥ 2.18): a blocking
// collective over the parent communicator that partitions its ranks by
// color, ordering each child communicator by (key, parent rank). A negative
// color returns nil (the rank joins no child, like NCCL_SPLIT_NOCOLOR).

import (
	"fmt"

	"repro/internal/lockstep"
	"repro/internal/sim"
)

// splitInst coordinates one collective Split call across the parent's
// ranks.
type splitInst struct {
	votes []lockstep.Vote // by parent rank
	rdv   *sim.Rendezvous
	ids   map[int]uint64 // color -> child communicator id
}

// Split partitions the communicator. Every rank of the parent must call it
// (with its own color/key) in the same relative order as other Split calls.
func (c *Comm) Split(p *sim.Proc, color, key int) *Comm {
	w := c.w
	c.splitSeq++
	skey := lockstep.Key{Group: c.g.ID, Seq: c.splitSeq, Kind: "comm-split"}
	si := w.shared.splits[skey]
	if si == nil {
		si = &splitInst{
			votes: make([]lockstep.Vote, c.Size()),
			rdv:   sim.NewRendezvous(fmt.Sprintf("ccl-split-%d-%d", c.g.ID, c.splitSeq), c.Size()),
			ids:   map[int]uint64{},
		}
		w.shared.splits[skey] = si
	}
	si.votes[c.g.Rank] = lockstep.Vote{Colour: color, Key: key}
	// The split performs a bootstrap exchange: charge a small host-side
	// collective cost and synchronize all parent ranks.
	p.Advance(c.profile().CallOverhead * sim.Duration(4))
	si.rdv.Arrive(p)
	if color < 0 {
		return nil
	}
	if _, ok := si.ids[color]; !ok {
		w.shared.nextCommID++
		si.ids[color] = w.shared.nextCommID
	}
	child := &Comm{w: w, dev: c.dev, g: c.g.Partition(si.votes, color)}
	child.g.ID = si.ids[color]
	return child
}
