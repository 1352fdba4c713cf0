// Package lockstep is the one skeleton under every GPUCCL and GPUSHMEM
// collective (DESIGN.md §5.1). A collective call is an instance shared by the
// ranks of a Group: each rank registers its views and blocks until all have
// arrived; the last arriver computes the result functionally, once, in rank
// order; then every rank charges virtual time by walking the same number of
// lockstep rounds, each a rendezvous followed by at most one fabric transfer,
// so the slowest link paces the whole group. What differs between collectives
// and libraries is only the data function and the per-round step generator.
package lockstep

import (
	"fmt"
	"math/bits"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Key identifies one collective call across the ranks of a group: every
// member derives the same key from the group id, its per-group call sequence
// and the (constant) operation kind.
type Key struct {
	Group, Seq uint64
	Kind       string
}

// Table holds one library world's in-flight instances and costs their
// transfers as that library.
type Table struct {
	cl    *gpu.Cluster
	lib   machine.Lib
	insts map[Key]*Instance
}

// NewTable creates the instance table of one library world.
func NewTable(cl *gpu.Cluster, lib machine.Lib) *Table {
	return &Table{cl: cl, lib: lib, insts: map[Key]*Instance{}}
}

// Instance is the cross-rank state of one collective call.
type Instance struct {
	t            *Table
	arrived      int
	ready        *sim.Gate       // fired by the last arriver
	rdv          *sim.Rendezvous // paces the rounds
	sends, recvs []gpu.View      // by group rank
}

// Arrive registers the caller's views at the instance of key and blocks until
// every member of g has arrived. The last arriver runs data (if non-nil)
// once, with all views registered, before anyone is released; the key is then
// free for reuse.
func (t *Table) Arrive(p *sim.Proc, key Key, g *Group, send, recv gpu.View, data func(sends, recvs []gpu.View)) *Instance {
	inst := t.insts[key]
	if inst == nil {
		label := fmt.Sprintf("%v %s g%d #%d", t.lib, key.Kind, key.Group, key.Seq)
		inst = &Instance{
			t:     t,
			ready: sim.NewGate(label),
			rdv:   sim.NewRendezvous(label, g.Size),
			sends: make([]gpu.View, g.Size),
			recvs: make([]gpu.View, g.Size),
		}
		t.insts[key] = inst
	}
	inst.sends[g.Rank], inst.recvs[g.Rank] = send, recv
	if inst.arrived++; inst.arrived < g.Size {
		inst.ready.Wait(p)
		return inst
	}
	if data != nil {
		data(inst.sends, inst.recvs)
	}
	delete(t.insts, key)
	inst.ready.Fire(p.Engine())
	return inst
}

// post books one transfer of bytes from the caller to group rank peer
// starting now and returns its arrival time. No peer (negative, out of range,
// or the caller itself) or no payload books nothing and returns now.
func (inst *Instance) post(p *sim.Proc, g *Group, api machine.API, peer int, bytes int64) sim.Time {
	if peer < 0 || peer >= g.Size || peer == g.Rank || bytes <= 0 {
		return p.Now()
	}
	cl := inst.t.cl
	src, dst := g.World(g.Rank), g.World(peer)
	cost := cl.Model.Cost(inst.t.lib, api, cl.Fabric.PathBetween(src, dst), bytes)
	return cl.Fabric.Transfer(p.Now(), src, dst, bytes, cost)
}

// Rounds walks the caller through rounds lockstep rounds: all members
// rendezvous, then the caller sends what step(round) names — bytes to group
// rank peer — and advances to its arrival. A final rendezvous keeps every
// member in until the slowest last-round transfer has landed.
func (inst *Instance) Rounds(p *sim.Proc, g *Group, api machine.API, rounds int, step func(round int) (peer int, bytes int64)) {
	for r := 0; r < rounds; r++ {
		inst.rdv.Arrive(p)
		peer, bytes := step(r)
		p.AdvanceTo(inst.post(p, g, api, peer, bytes))
	}
	inst.rdv.Arrive(p)
}

// FanOut is the put-emulation schedule: the caller posts bytes to the count
// group ranks first, first+1, … (wrapping, itself skipped) back to back,
// advances to the slowest delivery, and all members rendezvous.
func (inst *Instance) FanOut(p *sim.Proc, g *Group, api machine.API, first, count int, bytes int64) {
	last := p.Now()
	for i := 0; i < count; i++ {
		last = max(last, inst.post(p, g, api, (first+i)%g.Size, bytes))
	}
	p.AdvanceTo(last)
	inst.rdv.Arrive(p)
}

// ReduceThenCopy is the allreduce data function: accumulate count elements
// in rank 0's destination and fan out from it. Every send is consumed before
// any other destination — which may be its rank's send buffer — is
// overwritten.
func ReduceThenCopy(count int, op gpu.ReduceOp) func(sends, recvs []gpu.View) {
	return func(sends, recvs []gpu.View) {
		gpu.ReduceAll(recvs[0], sends, count, op)
		for _, dst := range recvs[1:] {
			gpu.Copy(dst, recvs[0], count)
		}
	}
}

// CopyFrom is the broadcast data function: root's send view lands in every
// other rank's destination.
func CopyFrom(root int) func(sends, recvs []gpu.View) {
	return func(sends, recvs []gpu.View) {
		for r, dst := range recvs {
			if r != root {
				gpu.Copy(dst, sends[root], sends[root].Len())
			}
		}
	}
}

// Gather is the allgather(v) data function: rank r's contribution of
// at(r).count elements lands at displacement at(r).displ of every
// destination.
func Gather(at func(r int) (displ, count int)) func(sends, recvs []gpu.View) {
	return func(sends, recvs []gpu.View) {
		for r, src := range sends {
			displ, count := at(r)
			for _, dst := range recvs {
				gpu.Copy(dst.Slice(displ, count), src, count)
			}
		}
	}
}

// Log2Ceil is ⌈log2 n⌉ for n ≥ 1: the round count of the dissemination and
// recursive-doubling schedules.
func Log2Ceil(n int) int { return bits.Len(uint(n - 1)) }
