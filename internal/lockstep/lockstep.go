// Package lockstep is the one skeleton under every GPUCCL and GPUSHMEM
// collective (DESIGN.md §5.1). A collective call is an instance shared by the
// ranks of a Group: each rank registers its views and waits until all have
// arrived; the last arriver computes the result functionally, once, in rank
// order; then every rank charges virtual time by walking the same number of
// lockstep rounds, each a rendezvous followed by at most one fabric transfer,
// so the slowest link paces the whole group. A rank's part is a Walk, a step
// machine. What differs between collectives and libraries is only the data
// function and the per-round step generator.
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
	insts map[Key]*instance
	free  []*Walk // finished walks, recycled by Join

	// spare holds finished instances by call site, kind and group, whose
	// calls reuse them: the diagnostic labels of their gate and rendezvous
	// are formatted once per call site, not once per call.
	spare map[site][]*instance
}

// site is what an instance's labels name: a kind of call on one group.
type site struct {
	kind  string
	group uint64
}

// NewTable creates the instance table of one library world.
func NewTable(cl *gpu.Cluster, lib machine.Lib) *Table {
	return &Table{cl: cl, lib: lib, insts: map[Key]*instance{}, spare: map[site][]*instance{}}
}

// instance is the cross-rank state of one collective call.
type instance struct {
	site         site
	reason       string // the ready gate's diagnostic label
	arrived      int
	left         int             // members whose walk is over
	ready        sim.Gate        // fired by the last arriver
	rdv          *sim.Rendezvous // paces the rounds
	sends, recvs []gpu.View      // by group rank
}

// instance returns a clean instance for a call of key on a group of size
// members: a spare one of its site, or a new one.
func (t *Table) instance(key Key, size int) *instance {
	at := site{key.Kind, key.Group}
	var inst *instance
	if spares := t.spare[at]; len(spares) > 0 {
		inst, t.spare[at] = spares[len(spares)-1], spares[:len(spares)-1]
	}
	if inst == nil || len(inst.sends) != size {
		label := fmt.Sprintf("%v %s g%d", t.lib, key.Kind, key.Group)
		inst = &instance{
			site:   at,
			reason: "gate " + label,
			rdv:    sim.NewRendezvous(label, size),
			sends:  make([]gpu.View, size),
			recvs:  make([]gpu.View, size),
		}
	}
	inst.ready = sim.Gate{}
	inst.ready.SetLabel(inst.reason)
	return inst
}

// leave counts one member's walk over; after the last, no walk refers to
// the instance and its site's next call reuses it.
func (t *Table) leave(inst *instance) {
	if inst.left++; inst.left < len(inst.sends) {
		return
	}
	clear(inst.sends)
	clear(inst.recvs)
	inst.arrived, inst.left = 0, 0
	t.spare[inst.site] = append(t.spare[inst.site], inst)
}

// Walk is one member's passage through one collective call, as a step
// machine: arrive — register the member's views and, unless it is the last
// arriver, wait for the last, who runs the data function once, with all views
// registered, and frees the key for reuse — then walk the call's schedule:
// lockstep rounds (Rounds), a fan-out (FanOut), or nothing. A stream op
// drives a walk from its own step (Step); a body that may block drives it
// with Run. Either way each wait — the ready gate, a rendezvous, a
// transfer's arrival — is one event of the walker's, and a finished walk is
// recycled.
type Walk struct {
	t          *Table
	key        Key
	g          *Group
	api        machine.API
	send, recv gpu.View
	data       func(sends, recvs []gpu.View)

	// The schedule: rounds rounds of step, or a fan-out of bytes to count
	// members from first; neither when a walk only arrives. sched is the
	// phase that follows the arrival.
	sched        walkPhase
	rounds       int
	step         func(round int) (peer int, bytes int64)
	first, count int
	bytes        int64

	inst   *instance
	phase  walkPhase
	round  int
	p      *sim.Proc           // Run's caller
	stepFn func() sim.Duration // Step(p), bound once for Run
}

type walkPhase uint8

const (
	walkArrive walkPhase = iota // register, and wait for the last arriver
	walkRound                   // the next round's rendezvous
	walkPost                    // the round's transfer
	walkFanOut                  // the fan-out's transfers
	walkLeave                   // the final rendezvous
	walkDone
)

// Join readies the caller's walk through the collective of key on group g,
// costing its transfers with api; it does nothing until stepped. data, if
// non-nil, is the collective's data function.
func (t *Table) Join(key Key, g *Group, api machine.API, send, recv gpu.View, data func(sends, recvs []gpu.View)) *Walk {
	var w *Walk
	if n := len(t.free); n > 0 {
		w, t.free = t.free[n-1], t.free[:n-1]
	} else {
		w = &Walk{t: t}
		w.stepFn = func() sim.Duration { return w.Step(w.p) }
	}
	w.key, w.g, w.api, w.send, w.recv, w.data = key, g, api, send, recv, data
	w.sched = walkDone
	return w
}

// Rounds gives the walk rounds lockstep rounds: all members rendezvous, then
// the member sends what step(round) names — bytes to group rank peer — and
// waits for its arrival. A final rendezvous keeps every member in until the
// slowest last-round transfer has landed.
func (w *Walk) Rounds(rounds int, step func(round int) (peer int, bytes int64)) *Walk {
	w.sched, w.rounds, w.step = walkRound, rounds, step
	return w
}

// FanOut gives the walk the put-emulation schedule: the member posts bytes to
// the count group ranks first, first+1, … (wrapping, itself skipped) back to
// back, waits for the slowest delivery, and all members rendezvous.
func (w *Walk) FanOut(first, count int, bytes int64) *Walk {
	w.sched, w.first, w.count, w.bytes = walkFanOut, first, count, bytes
	return w
}

// Run walks the caller p through the collective, blocking it until the walk
// is over; p must not be running a script (sim.Proc.AdvanceFn).
func (w *Walk) Run(p *sim.Proc) {
	w.p = p
	p.AdvanceFn(0, w.stepFn)
}

// Step is the walk's step machine, for a script of p's (sim.Proc.AdvanceFn):
// it goes as far as it can in this event slot and answers what it waits for,
// or sim.StepResume when the walk is over and recycled.
func (w *Walk) Step(p *sim.Proc) sim.Duration {
	for {
		switch w.phase {
		case walkArrive:
			w.phase = w.sched
			if !w.arrive(p) {
				return sim.StepEnlisted
			}
		case walkRound:
			if w.round == w.rounds {
				w.phase = walkLeave
				continue
			}
			w.phase = walkPost
			if !w.inst.rdv.Enlist(p) {
				return sim.StepEnlisted
			}
		case walkPost:
			peer, bytes := w.step(w.round)
			w.round++
			w.phase = walkRound
			if d := w.post(p, peer, bytes).Sub(p.Now()); d > 0 {
				return d
			}
		case walkFanOut:
			last := p.Now()
			for i := 0; i < w.count; i++ {
				last = max(last, w.post(p, (w.first+i)%w.g.Size, w.bytes))
			}
			w.phase = walkLeave
			if d := last.Sub(p.Now()); d > 0 {
				return d
			}
		case walkLeave:
			w.phase = walkDone
			if !w.inst.rdv.Enlist(p) {
				return sim.StepEnlisted
			}
		case walkDone:
			w.t.leave(w.inst)
			*w = Walk{t: w.t, stepFn: w.stepFn}
			w.t.free = append(w.t.free, w)
			return sim.StepResume
		}
	}
}

// arrive registers the member's views at the instance of its key and reports
// whether it may go on: the last arriver runs data and releases the others;
// anyone else enlists on the instance's ready gate.
func (w *Walk) arrive(p *sim.Proc) bool {
	t, g := w.t, w.g
	inst := t.insts[w.key]
	if inst == nil {
		inst = t.instance(w.key, g.Size)
		t.insts[w.key] = inst
	}
	w.inst = inst
	inst.sends[g.Rank], inst.recvs[g.Rank] = w.send, w.recv
	if inst.arrived++; inst.arrived < g.Size {
		return inst.ready.Enlist(p)
	}
	if w.data != nil {
		w.data(inst.sends, inst.recvs)
	}
	delete(t.insts, w.key)
	inst.ready.Fire(p.Engine())
	return true
}

// post books one transfer of bytes from the member to group rank peer
// starting now and returns its arrival time. No peer (negative, out of range,
// or the member itself) or no payload books nothing and returns now.
func (w *Walk) post(p *sim.Proc, peer int, bytes int64) sim.Time {
	g := w.g
	if peer < 0 || peer >= g.Size || peer == g.Rank || bytes <= 0 {
		return p.Now()
	}
	cl := w.t.cl
	src, dst := g.World(g.Rank), g.World(peer)
	cost := cl.Model.Cost(w.t.lib, w.api, cl.Fabric.PathBetween(src, dst), bytes)
	return cl.Fabric.Transfer(p.Now(), src, dst, bytes, cost)
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
