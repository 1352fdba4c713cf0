package sim

// Parallel-in-virtual-time execution: a Group advances several Engines
// (shards) in conservative lookahead windows, MGSim-style.
//
// The protocol exploits a fabric property: every cross-node message pays at
// least the minimum inter-node link latency α before it can be observed by
// the destination. With ranks partitioned by cluster node, a window
// [T0, T0+α) — where T0 is the globally earliest pending event — can be
// executed by every shard in parallel: no message posted inside the window
// can be delivered inside it, so shards cannot affect each other until the
// next barrier.
//
// Determinism argument (see DESIGN.md §12 for the full version):
//
//  1. T0 is the min over all shards' next event times, so the sequence of
//     window boundaries is a pure function of the event set — independent
//     of the shard count.
//  2. Every event executes in the unique window containing its timestamp,
//     in the per-shard (at, seq) total order. Within one node, relative seq
//     order is preserved under any sharding by induction over windows.
//  3. Cross-shard messages travel through the Conduit, which stamps each
//     with (at, srcNode, per-source-node seq) — all shard-count-invariant
//     quantities — and injects them at the barrier in that sorted order.
//     Injection assigns fresh destination seqs deterministically.
//
// Together these make a sharded run's virtual-time results bit-identical at
// any shard count ≥ 1 (shards=1 still runs the windowed protocol, so the
// CI byte-compares pin 1-vs-N equality).

import (
	"fmt"
	"sort"
)

// message is one cross-shard event in flight: a callback to run on the
// destination shard's engine at virtual time at. The (at, srcNode, seq)
// triple is its deterministic merge key.
type message struct {
	at       Time
	srcNode  int
	seq      uint64
	dstShard int
	fn       func(*Engine)
}

// Conduit carries cross-node messages between shards. During a window each
// shard appends to its own outbox (single writer, no locking); between
// windows the group drains all outboxes, sorts by (at, srcNode, seq), and
// injects the callbacks into the destination engines. The window-boundary
// check in Post is the conservative-lookahead contract: a message timed
// inside the current window would have to be delivered into a window that
// is already executing in parallel, which would break determinism — it can
// only arise from a lookahead smaller than the real minimum link latency.
type Conduit struct {
	engines   []*Engine
	shardOf   []int       // node -> shard
	outbox    [][]message // per source shard
	seqs      []uint64    // per source node
	windowEnd Time
}

// Shards reports the shard count.
func (c *Conduit) Shards() int { return len(c.engines) }

// ShardOfNode reports which shard owns a cluster node.
func (c *Conduit) ShardOfNode(node int) int { return c.shardOf[node] }

// Post sends fn to the shard owning dstNode, to run at absolute virtual
// time at. It must be called from the shard owning srcNode, while that
// shard executes a window. at must be at or beyond the current window end.
func (c *Conduit) Post(srcNode, dstNode int, at Time, fn func(*Engine)) {
	if at < c.windowEnd {
		panic(fmt.Sprintf("sim: conduit message at %v violates window boundary %v (lookahead too large for this link)", at, c.windowEnd))
	}
	s := c.shardOf[srcNode]
	c.seqs[srcNode]++
	c.outbox[s] = append(c.outbox[s], message{at: at, srcNode: srcNode, seq: c.seqs[srcNode], dstShard: c.shardOf[dstNode], fn: fn})
}

// inject drains every outbox and merges the messages into the destination
// engines in (at, srcNode, seq) order. Called by the group between windows,
// while no shard is running. The sort key is unique (seq is per srcNode),
// so the merge order — and therefore the destination seq assignment — is a
// pure function of the message set, not of shard scheduling.
func (c *Conduit) inject() {
	var all []message
	for i := range c.outbox {
		all = append(all, c.outbox[i]...)
		c.outbox[i] = c.outbox[i][:0]
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].at != all[j].at {
			return all[i].at < all[j].at
		}
		if all[i].srcNode != all[j].srcNode {
			return all[i].srcNode < all[j].srcNode
		}
		return all[i].seq < all[j].seq
	})
	for _, m := range all {
		m := m
		e := c.engines[m.dstShard]
		e.InjectAt(m.at, func() { m.fn(e) })
	}
}

// Group advances a set of shard engines in conservative lookahead windows.
// Each shard runs on its own persistent worker goroutine; the group
// computes window boundaries, relays conduit traffic, and decides
// termination. All virtual-time state stays confined to exactly one
// goroutine at a time (a shard's worker during windows, the group's
// goroutine between them), with the command/done channels providing the
// happens-before edges.
type Group struct {
	engines   []*Engine
	conduit   *Conduit
	lookahead Duration
}

// NewGroup builds a group over the given engines. shardOfNode maps each
// cluster node to the shard index owning it; lookahead is the guaranteed
// minimum cross-node delivery delay (the minimum inter-node link α) and
// must be positive.
func NewGroup(engines []*Engine, shardOfNode []int, lookahead Duration) *Group {
	if lookahead <= 0 {
		panic("sim: NewGroup requires a positive lookahead")
	}
	for _, s := range shardOfNode {
		if s < 0 || s >= len(engines) {
			panic("sim: NewGroup shard map references a missing engine")
		}
	}
	g := &Group{engines: engines, lookahead: lookahead}
	g.conduit = &Conduit{
		engines: engines,
		shardOf: append([]int(nil), shardOfNode...),
		outbox:  make([][]message, len(engines)),
		seqs:    make([]uint64, len(shardOfNode)),
	}
	return g
}

// Conduit returns the group's cross-shard message channel, to be installed
// wherever the communication layers route inter-node traffic.
func (g *Group) Conduit() *Conduit { return g.conduit }

// End reports the latest virtual time reached by any shard — the sharded
// equivalent of Engine.Now after Run, and shard-count invariant (it is the
// timestamp of the globally last event).
func (g *Group) End() Time {
	var t Time
	for _, e := range g.engines {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// windowResult is one shard's outcome for one window.
type windowResult struct {
	shard int
	err   error
}

// Run executes the simulation to completion across all shards. It returns
// nil on clean completion, a merged *DeadlockError if live processes remain
// on any shard with no pending events anywhere, or the terminal error of
// the lowest-indexed failing shard (a deterministic choice when several
// shards fail in the same window).
func (g *Group) Run() error {
	n := len(g.engines)
	cmds := make([]chan Time, n)
	dones := make(chan windowResult)
	for i := 0; i < n; i++ {
		cmds[i] = make(chan Time)
		go func(i int) {
			e := g.engines[i]
			for end := range cmds[i] {
				dones <- windowResult{shard: i, err: e.RunWindow(end)}
			}
		}(i)
	}
	defer func() {
		for _, c := range cmds {
			close(c)
		}
	}()
	for {
		g.conduit.inject()
		t0 := Time(-1)
		for _, e := range g.engines {
			if ev := e.q.peek(); ev != nil && (t0 < 0 || ev.at < t0) {
				t0 = ev.at
			}
		}
		if t0 < 0 {
			// No pending events on any shard and nothing in flight: the
			// simulation is over. Live procs anywhere make it a deadlock,
			// diagnosed exactly like the serial engine but merged.
			live := 0
			for _, e := range g.engines {
				live += e.live
			}
			if live > 0 {
				var waiting []string
				for _, e := range g.engines {
					waiting = append(waiting, e.waitingList()...)
				}
				sort.Strings(waiting)
				return &DeadlockError{At: g.End(), Waiting: waiting}
			}
			return nil
		}
		end := t0.Add(g.lookahead)
		g.conduit.windowEnd = end
		for _, c := range cmds {
			c <- end
		}
		var firstErr error
		firstShard := -1
		for k := 0; k < n; k++ {
			r := <-dones
			if r.err != nil && (firstShard < 0 || r.shard < firstShard) {
				firstErr, firstShard = r.err, r.shard
			}
		}
		if firstErr != nil {
			return firstErr
		}
	}
}
