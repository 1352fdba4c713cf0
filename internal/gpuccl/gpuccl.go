// Package gpuccl implements a GPU collective communication library in the
// mold of NCCL/RCCL: stream-ordered collectives and point-to-point
// operations that execute as GPU kernels, group semantics that fuse multiple
// operations into a single kernel launch, and ring algorithms whose steps
// move across the simulated fabric.
//
// Key behaviours reproduced from the real library family:
//
//   - Every operation (or group of operations) is one kernel on the caller's
//     stream; it pays a fixed launch overhead, which dominates small-message
//     latency (the reason GPUCCL loses to MPI/GPUSHMEM at small sizes).
//   - A collective kernel cannot make progress until the matching kernel of
//     every peer is running; ranks then proceed in lockstep through the ring
//     steps, so the slowest link paces everyone.
//   - GroupStart/GroupEnd aggregate point-to-point operations (and
//     collectives) into one launch, amortizing the overhead — the mechanism
//     UNICONN leans on for halo exchanges and emulated collectives.
package gpuccl

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/lockstep"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// World is one GPUCCL job: a clique of communicators over all devices.
type World struct {
	cluster *gpu.Cluster
	shared  *shared
	comms   []*Comm
	// groups holds each rank's group-aggregation context. Like real NCCL,
	// ncclGroupStart/End scope is per thread (here: per rank), not per
	// communicator handle, so operations on sub-communicators fuse into
	// the same group.
	groups []*groupCtx

	// mColl holds per-operation-class virtual-time histograms
	// ("gpuccl.coll.<class>", in ns), resolved at construction from the
	// cluster's registry; nil (disabled) when no registry is installed.
	mColl map[string]*metrics.Histogram
}

// opClasses are the known operation labels, reduced to their leading
// letters ("send->3" and "recv<-1" class as "send"/"recv").
var opClasses = []string{
	"allreduce", "reduce", "broadcast", "allgather", "reducescatter", "send", "recv",
}

// opClass reduces an op label to its class: the leading lowercase-letter run.
func opClass(label string) string {
	for i := 0; i < len(label); i++ {
		if label[i] < 'a' || label[i] > 'z' {
			return label[:i]
		}
	}
	return label
}

// collHist resolves the timing histogram for one op label, nil when metrics
// are disabled (or the class is unknown).
func (w *World) collHist(label string) *metrics.Histogram {
	if w.mColl == nil {
		return nil
	}
	return w.mColl[opClass(label)]
}

// groupCtx is one rank's group-aggregation state.
type groupCtx struct {
	depth   int
	pending []pendingOp
}

// pendingOp is an aggregated operation together with the stream it targets.
type pendingOp struct {
	o op
	s *gpu.Stream
}

// shared is cross-rank matching state. Collectives, splits and shrinks are
// keyed by (communicator id, per-rank sequence, kind); the sequence is
// identical across ranks because all ranks issue the same calls in the same
// order (an NCCL usage requirement).
type shared struct {
	insts      *lockstep.Table
	pairs      map[pairKey]*pairFIFO
	splits     map[lockstep.Key]*splitInst
	shrinks    map[lockstep.Key]*shrinkInst
	nextCommID uint64
}

// pairKey scopes point-to-point matching to one communicator; src/dst are
// communicator-local ranks.
type pairKey struct {
	comm     uint64
	src, dst int
}

// NewWorld bootstraps communicators on every device of the cluster
// (the paper's applications bootstrap NCCL over MPI; the setup cost is
// charged by the UNICONN Environment).
func NewWorld(cluster *gpu.Cluster) *World {
	w := &World{
		cluster: cluster,
		shared: &shared{
			insts:   lockstep.NewTable(cluster, machine.LibGPUCCL),
			pairs:   map[pairKey]*pairFIFO{},
			splits:  map[lockstep.Key]*splitInst{},
			shrinks: map[lockstep.Key]*shrinkInst{},
		},
	}
	n := len(cluster.Devices)
	for i, dev := range cluster.Devices {
		w.comms = append(w.comms, &Comm{w: w, dev: dev, g: lockstep.Group{Size: n, Rank: i}})
		w.groups = append(w.groups, &groupCtx{})
	}
	if r := cluster.Metrics; r != nil {
		w.mColl = make(map[string]*metrics.Histogram, len(opClasses))
		for _, class := range opClasses {
			w.mColl[class] = r.Histogram("gpuccl.coll." + class)
		}
	}
	return w
}

// Size reports the number of ranks.
func (w *World) Size() int { return len(w.comms) }

// Comm returns rank r's communicator handle.
func (w *World) Comm(r int) *Comm { return w.comms[r] }

// Comm is one rank's communicator handle (an ncclComm_t). Sub-communicators
// created by Split carry a member table translating communicator-local
// ranks to world (device) ids; the world communicator's is nil (identity)
// and its id 0.
type Comm struct {
	w   *World
	dev *gpu.Device
	g   lockstep.Group

	opSeq    uint64
	splitSeq uint64
}

// Rank reports the calling rank within the communicator.
func (c *Comm) Rank() int { return c.g.Rank }

// Size reports the communicator size.
func (c *Comm) Size() int { return c.g.Size }

// worldOf translates a communicator rank to a world (device) id.
func (c *Comm) worldOf(r int) int { return c.g.World(r) }

// myWorld is the calling rank's world id.
func (c *Comm) myWorld() int { return c.g.World(c.g.Rank) }

// Device reports the owning device.
func (c *Comm) Device() *gpu.Device { return c.dev }

func (c *Comm) model() *machine.Model { return c.w.cluster.Model }

func (c *Comm) profile() machine.LibProfile {
	return c.model().Profile(machine.LibGPUCCL, machine.APIHost)
}

// op is one queued operation; run executes it on the stream process inside
// the (possibly fused) kernel.
type op struct {
	label string
	run   func(p *sim.Proc)
}

// group returns the calling rank's aggregation context (group scope is per
// rank, like NCCL's per-thread ncclGroupStart/End — operations on any
// communicator of this rank join the open group).
func (c *Comm) group() *groupCtx { return c.w.groups[c.myWorld()] }

// GroupStart begins operation aggregation for this rank, mirroring
// ncclGroupStart. Groups may be nested; only the outermost GroupEnd
// launches.
func (c *Comm) GroupStart() { c.group().depth++ }

// GroupEnd launches all aggregated operations, mirroring ncclGroupEnd:
// one fused kernel per target stream.
func (c *Comm) GroupEnd(p *sim.Proc, s *gpu.Stream) {
	g := c.group()
	if g.depth == 0 {
		panic("gpuccl: GroupEnd without GroupStart")
	}
	g.depth--
	if g.depth > 0 {
		return
	}
	pend := g.pending
	g.pending = nil
	// Fuse per stream, preserving submission order.
	for len(pend) > 0 {
		stream := pend[0].s
		var ops []op
		var rest []pendingOp
		for _, po := range pend {
			if po.s == stream {
				ops = append(ops, po.o)
			} else {
				rest = append(rest, po)
			}
		}
		c.launch(p, stream, ops)
		pend = rest
	}
}

// submit runs one op immediately (implicit group of one) or defers it to
// GroupEnd.
func (c *Comm) submit(p *sim.Proc, s *gpu.Stream, o op) {
	p.Advance(c.profile().CallOverhead)
	if h := c.w.collHist(o.label); h != nil {
		run := o.run
		o.run = func(sp *sim.Proc) {
			start := sp.Now()
			run(sp)
			h.Observe(int64(sp.Now().Sub(start)))
		}
	}
	if g := c.group(); g.depth > 0 {
		g.pending = append(g.pending, pendingOp{o: o, s: s})
		return
	}
	c.launch(p, s, []op{o})
}

// launch enqueues one fused communication kernel executing ops. The
// individual ops run concurrently: each op gets its own sub-process and the
// kernel completes when all have finished, mirroring how a fused NCCL
// kernel drives all its channels in parallel.
func (c *Comm) launch(p *sim.Proc, s *gpu.Stream, ops []op) {
	if len(ops) == 0 {
		return
	}
	prof := c.profile()
	s.Enqueue(fmt.Sprintf("ccl-kernel[%d]", len(ops)), func(sp *sim.Proc) {
		sp.Advance(prof.LaunchOverhead)
		if len(ops) == 1 {
			ops[0].run(sp)
			return
		}
		eng := sp.Engine()
		done := sim.NewCounter("ccl-fused", 0)
		// Sub-processes catch their own aborts (a rank failure poisoning one
		// channel) so a revoked fused kernel still completes bookkeeping; the
		// first failure is re-raised on the stream process after the join,
		// where Stream.run records it.
		var aborted error
		for _, o := range ops {
			o := o
			eng.Spawn(fmt.Sprintf("%s.%s", s.Name(), o.label), func(op *sim.Proc) {
				if err := sim.Protect(func() { o.run(op) }); err != nil && aborted == nil {
					aborted = err
				}
				done.Add(eng, 1)
			})
		}
		done.WaitGE(sp, uint64(len(ops)))
		if aborted != nil {
			sim.Abort(aborted)
		}
	})
}

// opKey draws the cross-rank key of the rank's next collective call. All
// ranks of the communicator must issue the same operations in the same order
// (an NCCL usage requirement), which is what makes the sequence match.
func (c *Comm) opKey(kind string) lockstep.Key {
	c.opSeq++
	return lockstep.Key{Group: c.g.ID, Seq: c.opSeq, Kind: kind}
}

// collective is the body of every collective kernel (internal/lockstep):
// once every rank's kernel is running the last arriver computes data, then
// each rank charges time by walking rounds lockstep rounds of step.
func (c *Comm) collective(sp *sim.Proc, key lockstep.Key, send, recv gpu.View,
	data func(sends, recvs []gpu.View), rounds int, step func(round int) (peer int, bytes int64)) {
	inst := c.w.shared.insts.Arrive(sp, key, &c.g, send, recv, data)
	inst.Rounds(sp, &c.g, machine.APIHost, rounds, step)
}

// ring is the step generator of the ring algorithms: in every step the rank
// sends bytes(step) to its right neighbour (nothing when that is zero), and
// because all ranks join every step's rendezvous the slowest transfer paces
// the ring, as in a real bandwidth-bound NCCL ring.
func (c *Comm) ring(bytes func(step int) int64) func(step int) (int, int64) {
	right := (c.g.Rank + 1) % c.g.Size
	return func(step int) (int, int64) { return right, bytes(step) }
}

// chunkSizes splits count elements into n contiguous chunks (standard ring
// partition, chunk i covers [starts[i], starts[i+1])).
func chunkSizes(count, n int) []int {
	starts := make([]int, n+1)
	for i := 0; i <= n; i++ {
		starts[i] = i * count / n
	}
	return starts
}

// allReduceTreeMax is the byte size up to which AllReduce uses the
// low-latency recursive-doubling exchange instead of the bandwidth-optimal
// ring (mirroring NCCL's LL/tree protocols for small messages).
const allReduceTreeMax = 64 << 10
