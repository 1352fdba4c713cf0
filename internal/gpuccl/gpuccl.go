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

	// Stream-op labels by peer rank and by fused op count, formatted once.
	sendLabels, recvLabels, kernelLabels gpu.OpLabels

	freeKernels []*kernel // completed kernels, recycled by newKernel
}

// opClasses are the operation classes timed in mColl.
var opClasses = []string{
	"allreduce", "reduce", "broadcast", "send", "recv",
}

// groupCtx is one rank's group-aggregation state.
type groupCtx struct {
	depth   int
	pending []op
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
		cluster:      cluster,
		sendLabels:   gpu.OpLabels{Format: "send->%d"},
		recvLabels:   gpu.OpLabels{Format: "recv<-%d"},
		kernelLabels: gpu.OpLabels{Format: "ccl-kernel[%d]"},
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

func (c *Comm) model() *machine.Model { return c.w.cluster.Model }

func (c *Comm) profile() machine.LibProfile {
	return c.model().Profile(machine.LibGPUCCL, machine.APIHost)
}

// op is one queued operation of a (possibly fused) kernel. A collective
// (coll set) is a lockstep walk, made when its kernel starts it. A
// point-to-point op carries its side of a p2pMsg — the pair's FIFO, its
// sequence number there, its buffer — for the kernel to start.
type op struct {
	label  string
	stream *gpu.Stream
	hist   *metrics.Histogram // times the op; nil when metrics are off
	coll   func() *lockstep.Walk

	f    *pairFIFO
	seq  uint64
	view gpu.View
	send bool
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
	// Fuse per stream, preserving submission order; the group keeps its
	// (cleared) queue for the next round.
	pend := g.pending
	for len(pend) > 0 {
		stream := pend[0].stream
		k := c.w.newKernel()
		rest := pend[:0]
		for _, o := range pend {
			if o.stream == stream {
				k.ops = append(k.ops, o)
			} else {
				rest = append(rest, o)
			}
		}
		c.launch(stream, k)
		pend = rest
	}
	clear(g.pending)
	g.pending = g.pending[:0]
}

// submit runs one op immediately (implicit group of one) or defers it to
// GroupEnd.
func (c *Comm) submit(p *sim.Proc, s *gpu.Stream, o op) {
	p.Charge(c.profile().CallOverhead) // paid at the stream's mailbox, or later
	o.stream = s
	if g := c.group(); g.depth > 0 {
		g.pending = append(g.pending, o)
		return
	}
	k := c.w.newKernel()
	k.ops = append(k.ops, o)
	c.launch(s, k)
}

// kernel is one launched communication kernel, a step machine its stream
// serves (gpu.Stream.EnqueueStep): the launch delay, then the ops, running
// concurrently as a fused NCCL kernel drives all its channels in parallel,
// and the join on their completion. Kernels are recycled through the world.
type kernel struct {
	w       *World
	ops     []op
	launch  sim.Duration
	phase   kernelPhase
	pending int      // ops not yet complete
	done    sim.Gate // fired when pending reaches zero
	aborted error    // first failure of an op

	// A lone collective runs in the kernel's own steps: its walk, and when
	// it started on the skip-free clock (sim.Engine.SkipFreeNow).
	walk  *lockstep.Walk
	start sim.Time

	stepFn func(sp *sim.Proc) sim.Duration // step, bound once
	dropFn func()                          // drop, bound once
}

type kernelPhase uint8

const (
	kernelLaunch kernelPhase = iota // charge the launch overhead
	kernelStart                     // start the ops
	kernelLone                      // walk the lone collective
	kernelJoin                      // the ops are done
)

func (w *World) newKernel() *kernel {
	if n := len(w.freeKernels); n > 0 {
		k := w.freeKernels[n-1]
		w.freeKernels = w.freeKernels[:n-1]
		return k
	}
	k := &kernel{w: w}
	k.stepFn, k.dropFn = k.step, k.drop
	return k
}

// release recycles a kernel that completed cleanly: no message and no
// sub-process refers to it any more.
func (k *kernel) release() {
	clear(k.ops)
	*k = kernel{w: k.w, ops: k.ops[:0], stepFn: k.stepFn, dropFn: k.dropFn}
	k.w.freeKernels = append(k.w.freeKernels, k)
}

// opDone completes one op, keeping its failure if it is the kernel's first.
func (k *kernel) opDone(eng *sim.Engine, err error) {
	if err != nil && k.aborted == nil {
		k.aborted = err
	}
	if k.pending--; k.pending == 0 {
		k.done.Fire(eng)
	}
}

// launch enqueues one fused communication kernel executing k.ops.
func (c *Comm) launch(s *gpu.Stream, k *kernel) {
	k.launch = c.profile().LaunchOverhead
	s.EnqueueStep(c.w.kernelLabels.For(len(k.ops)), k.stepFn, k.dropFn)
}

// step is the kernel's step machine on its stream process sp. After the
// launch delay it starts every op and waits for all of them. A lone
// collective walks in the kernel's own steps. Otherwise a point-to-point op is
// a state machine started in place, and a collective gets a sub-process that
// catches its own abort (a rank failure poisoning one channel), so a revoked
// kernel still completes bookkeeping; the first failure is raised after the
// join, where the stream records it.
func (k *kernel) step(sp *sim.Proc) sim.Duration {
	for {
		switch k.phase {
		case kernelLaunch:
			k.phase = kernelStart
			if k.launch > 0 {
				return k.launch
			}
		case kernelStart:
			if o := &k.ops[0]; len(k.ops) == 1 && o.coll != nil {
				k.phase, k.walk, k.start = kernelLone, o.coll(), sp.Engine().SkipFreeNow()
				continue
			}
			eng := sp.Engine()
			k.phase, k.pending = kernelJoin, len(k.ops)
			k.done.SetLabel("gate ccl-kernel")
			for i := range k.ops {
				o := &k.ops[i]
				if o.coll == nil {
					o.start(eng, k)
					continue
				}
				eng.Spawn(o.stream.Name()+"."+o.label, func(cp *sim.Proc) {
					k.opDone(eng, sim.Protect(func() { o.exec(cp) }))
				})
			}
			if !k.done.Enlist(sp) {
				return sim.StepEnlisted
			}
		case kernelLone:
			if d := k.walk.Step(sp); d != sim.StepResume {
				return d
			}
			k.ops[0].hist.Observe(int64(sp.Engine().SkipFreeNow().Sub(k.start)))
			k.phase = kernelJoin
		case kernelJoin:
			if k.aborted != nil {
				sim.Abort(k.aborted)
			}
			k.release()
			return sim.StepResume
		}
	}
}

// drop is the kernel torn down mid-way — its stream process revoked or killed
// while it waits: its outstanding point-to-point ops are withdrawn from their
// messages.
func (k *kernel) drop() {
	for i := range k.ops {
		if o := &k.ops[i]; k.pending > 0 && o.coll == nil {
			o.revoke(k)
		}
	}
}

// exec walks a fused collective op to completion on its sub-process p.
func (o *op) exec(p *sim.Proc) {
	start := p.Engine().SkipFreeNow()
	o.coll().Run(p)
	o.hist.Observe(int64(p.Engine().SkipFreeNow().Sub(start)))
}

// opKey draws the cross-rank key of the rank's next collective call. All
// ranks of the communicator must issue the same operations in the same order
// (an NCCL usage requirement), which is what makes the sequence match.
func (c *Comm) opKey(kind string) lockstep.Key {
	c.opSeq++
	return lockstep.Key{Group: c.g.ID, Seq: c.opSeq, Kind: kind}
}

// collective is the walk of every collective kernel (internal/lockstep):
// once every rank's kernel is running the last arriver computes data, then
// each rank charges time by walking rounds lockstep rounds of step.
func (c *Comm) collective(key lockstep.Key, send, recv gpu.View,
	data func(sends, recvs []gpu.View), rounds int, step func(round int) (peer int, bytes int64)) *lockstep.Walk {
	return c.w.shared.insts.Join(key, &c.g, machine.APIHost, send, recv, data).Rounds(rounds, step)
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
