// Package mpi implements a GPU-aware MPI substrate on the simulated
// cluster: two-sided point-to-point messaging with eager and rendezvous
// protocols, tag matching with wildcards, non-blocking operations, derived
// communicators, and the standard collective set.
//
// Like real GPU-aware MPI (and unlike GPUCCL/GPUSHMEM), this library has no
// notion of GPU streams: all calls are host-initiated and the application is
// responsible for synchronizing streams before communicating out of device
// buffers (the exact property UNICONN's Coordinator has to paper over).
package mpi

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Wildcards for Recv matching.
const (
	anySource = -1
	anyTag    = -1
)

// maxUserTag is the upper bound (exclusive) for application tags; tags at or
// above it are reserved for internal collective rounds.
const maxUserTag = 1 << 20

// World is the MPI job: one endpoint per rank on the simulated cluster.
type World struct {
	cluster *gpu.Cluster
	eps     []*endpoint
	worlds  []*Comm

	// Protocol metrics, resolved once from the cluster's registry at
	// construction (nil instruments — no-ops — when metrics are disabled).
	mEager      *metrics.Counter // sends taking the eager protocol
	mRendezvous *metrics.Counter // sends taking the rendezvous protocol
	mRetries    *metrics.Counter // rendezvous transfers re-issued after a stall
	mMatchDepth *metrics.Gauge   // high-water tag-match queue depth (posted+unexpected)

	// prof is the host-MPI cost profile, resolved once at construction: the
	// point-to-point hot path consults it on every call and the underlying
	// model map never changes.
	prof machine.LibProfile

	// free is the envelope free list (newHeader, retire). poisonRetired is
	// set by tests: a retired envelope is then scrambled instead of reused,
	// so any read of one fails loudly.
	free          []*header
	poisonRetired bool

	// Per-collective virtual-time histograms ("mpi.coll.<kind>", in ns).
	// Vector variants share their base collective's histogram.
	mColl struct {
		barrier, bcast, reduce, allreduce *metrics.Histogram
		gather, scatter, allgather        *metrics.Histogram
		alltoall                          *metrics.Histogram
	}
}

// timeColl starts timing one collective call on the skip-free clock
// (sim.Engine.SkipFreeNow); invoke the returned func at exit (via defer). Disabled metrics return a shared no-op, so the
// instrumented call sites cost one nil check and an empty defer.
func timeColl(p *sim.Proc, h *metrics.Histogram) func() {
	if h == nil {
		return nopEnd
	}
	start := p.Engine().SkipFreeNow()
	return func() { h.Observe(int64(p.Engine().SkipFreeNow().Sub(start))) }
}

var nopEnd = func() {}

// NewWorld creates an MPI world with one rank per device of the cluster.
// Install the metrics registry (gpu.Cluster.SetMetrics) before calling:
// instruments are resolved here.
func NewWorld(cluster *gpu.Cluster) *World {
	w := &World{cluster: cluster}
	w.prof = cluster.Model.Profile(machine.LibMPI, machine.APIHost)
	r := cluster.Metrics
	w.mEager = r.Counter("mpi.sends.eager")
	w.mRendezvous = r.Counter("mpi.sends.rendezvous")
	w.mRetries = r.Counter("mpi.rendezvous.retries")
	w.mMatchDepth = r.Gauge("mpi.matchq.depth")
	w.mColl.barrier = r.Histogram("mpi.coll.barrier")
	w.mColl.bcast = r.Histogram("mpi.coll.bcast")
	w.mColl.reduce = r.Histogram("mpi.coll.reduce")
	w.mColl.allreduce = r.Histogram("mpi.coll.allreduce")
	w.mColl.gather = r.Histogram("mpi.coll.gather")
	w.mColl.scatter = r.Histogram("mpi.coll.scatter")
	w.mColl.allgather = r.Histogram("mpi.coll.allgather")
	w.mColl.alltoall = r.Histogram("mpi.coll.alltoall")
	group := make([]int, len(cluster.Devices))
	for i, dev := range cluster.Devices {
		w.eps = append(w.eps, &endpoint{
			world: w,
			dev:   dev,
			pairs: map[pairKey]*pairState{},
		})
		group[i] = i
	}
	for i := range w.eps {
		w.worlds = append(w.worlds, newComm(w.eps[i], 0, group, i))
	}
	return w
}

// CommWorld returns the world communicator handle of one rank. The handle
// is cached: repeated calls return the same instance, so the internal
// collective sequence advances consistently.
func (w *World) CommWorld(rank int) *Comm { return w.worlds[rank] }

// endpoint is the per-rank library state.
type endpoint struct {
	world *World
	dev   *gpu.Device

	posted     []*postedRecv
	unexpected []*header
	pairs      map[pairKey]*pairState
}

// pairKey orders headers per (source rank, context) pair so that matching
// preserves MPI's non-overtaking guarantee.
type pairKey struct {
	src int
	ctx int
}

type pairState struct {
	nextRecv uint64             // next sequence to admit into matching
	held     map[uint64]*header // lazily allocated: only out-of-order arrivals need it
}

// link is the sender's end of one (this rank -> destination, context) message
// stream: the next send sequence number, monotonically increasing from zero,
// and the destination's ordering state for the stream, resolved once so that
// neither a send nor an arrival hashes a pairKey. Links live on the handle
// (one handle per rank and context, as Comm.coll already requires), so there
// are as many as peers the handle has sent to, never ranks squared.
type link struct {
	seq uint64
	ps  *pairState
}

// linkTo returns the link to comm rank dst. A ring talks to one neighbour for
// a whole collective, which the one-entry memo in front of the map serves.
func (c *Comm) linkTo(dst int) *link {
	if c.lastLink != nil && c.lastDst == dst {
		return c.lastLink
	}
	l := c.links[dst]
	if l == nil {
		if c.links == nil {
			c.links = map[int]*link{}
		}
		l = &link{ps: c.ep.world.eps[c.group[dst]].pair(pairKey{src: c.group[c.rank], ctx: c.ctx})}
		c.links[dst] = l
	}
	c.lastDst, c.lastLink = dst, l
	return l
}

// Status describes a completed receive.
type Status struct {
	source int
	tag    int
	count  int
}

// Request is a handle for a non-blocking operation. It is part of the
// operation's envelope (header.req, postedRecv.req), which is therefore never
// recycled once a caller holds it.
type Request struct {
	done   *sim.Gate
	status *Status
}

// wait blocks until the operation completes and returns the receive status
// (zero Status for sends).
func (r *Request) wait(p *sim.Proc) Status {
	r.done.Wait(p)
	if r.status != nil {
		return *r.status
	}
	return Status{}
}

// WaitAll waits for every request.
func WaitAll(p *sim.Proc, reqs ...*Request) {
	for _, r := range reqs {
		if r != nil {
			r.wait(p)
		}
	}
}

// header is the matching envelope of an in-flight message. For eager
// messages the payload has been staged and travels with the envelope; for
// rendezvous the envelope is the RTS and the payload moves after the CTS.
type header struct {
	src, dst int // world ranks
	ctx, tag int
	seq      uint64
	count    int
	ps       *pairState // the destination's ordering state for (src, ctx)

	eager  bool
	staged gpu.View // eager: payload snapshot taken at send time
	srcBuf gpu.View // rendezvous: live sender buffer
	// sGate completes the send. It, the Request of a caller-held send and the
	// bound arrival callback are all part of the envelope, so a message is
	// one allocation, and none when the envelope is recycled.
	sGate   sim.Gate
	req     Request
	admitFn func()
	// lib marks the envelope of a blocking exchange, which the library owns
	// and recycles (World.retire); one behind an Isend is the caller's.
	lib bool
}

// hdrPoolCap bounds the envelope free list, for the reason sim's event pool
// is bounded: a burst must not pin its high-water mark for the world's life.
const hdrPoolCap = 4096

// newHeader takes an envelope from the free list, or makes one.
func (w *World) newHeader() *header {
	if n := len(w.free); n > 0 {
		h := w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		h.sGate = sim.Gate{}
		return h
	}
	h := &header{}
	h.req.done = &h.sGate
	h.admitFn = func() { w.eps[h.dst].admit(h) }
	return h
}

// retire recycles a library-owned envelope. The rule that makes it safe: an
// eager envelope is retired by its receiver, in deliver, and its sender never
// reads it after injection; a rendezvous envelope is retired by its sender,
// once its send gate has fired, which is the last thing the receiving side
// does with it. An envelope behind a caller-held Request is never retired.
func (w *World) retire(h *header) {
	switch {
	case !h.lib:
	case w.poisonRetired:
		*h = header{src: -1, dst: -1, count: -1, eager: !h.eager}
	case len(w.free) < hdrPoolCap:
		h.staged, h.srcBuf = gpu.View{}, gpu.View{}
		w.free = append(w.free, h)
	}
}

type postedRecv struct {
	buf      gpu.View
	count    int
	src, tag int
	ctx      int
	// seed, when non-zero, makes the receive a reduction: the payload lands
	// as buf = op(seed, payload) instead of being copied (recvReduce).
	seed gpu.View
	op   gpu.ReduceOp
	// done, status and the Request pointing at them are embedded for the same
	// single-allocation reason as header.sGate.
	done   sim.Gate
	status Status
	req    Request
}

// land moves n payload elements into the receive buffer, straight from
// wherever the protocol holds them (the eager snapshot, or the live sender
// buffer of a rendezvous): a copy for an ordinary receive, a single combining
// pass for a reducing one.
func (pr *postedRecv) land(payload gpu.View, n int) {
	switch {
	case pr.seed.IsZero():
		gpu.Copy(pr.buf, payload, n)
	case pr.seed.SameBuffer(pr.buf) && pr.seed.Offset() == pr.buf.Offset():
		gpu.Reduce(pr.buf, payload, n, pr.op)
	default:
		gpu.Combine(pr.buf, pr.seed, payload, n, pr.op)
	}
}

func (pr *postedRecv) matches(h *header) bool {
	if pr.ctx != h.ctx {
		return false
	}
	if pr.src != anySource && pr.src != h.src {
		return false
	}
	if pr.tag != anyTag && pr.tag != h.tag {
		return false
	}
	return true
}

// Comm is a communicator handle owned by one rank, analogous to an
// MPI_Comm value.
type Comm struct {
	ep    *endpoint
	ctx   int
	group []int // world ranks of the members, ordered by comm rank
	rank  int   // this rank within the communicator

	// coll is the per-handle collective sequence number, used to build
	// reserved tags. It requires every rank to use a single handle per
	// communicator (CommWorld and Split hand out exactly one).
	coll uint64

	// hier caches the node-block layout detection (hierLayout); the group
	// is immutable after construction so it never invalidates.
	hier *hierLayout

	// links holds the send streams of this handle by destination comm rank
	// (linkTo); lastDst/lastLink memoise the most recent one.
	links    map[int]*link
	lastDst  int
	lastLink *link

	// x is the handle's one blocking exchange (exchange.go).
	x exchange
}

func newComm(ep *endpoint, ctx int, group []int, rank int) *Comm {
	c := &Comm{ep: ep, ctx: ctx, group: group, rank: rank}
	c.x.c, c.x.step, c.x.pr = c, c.x.run, &postedRecv{}
	return c
}

// Rank reports the calling rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size reports the communicator size.
func (c *Comm) Size() int { return len(c.group) }

func (c *Comm) model() *machine.Model { return c.ep.world.cluster.Model }

func (c *Comm) profile() machine.LibProfile { return c.ep.world.prof }

func (c *Comm) checkDst(dst int) {
	if dst < 0 || dst >= len(c.group) {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d (size %d)", dst, len(c.group)))
	}
}

// Isend starts a non-blocking standard-mode send of buf to dst (comm rank)
// with the given tag.
func (c *Comm) Isend(p *sim.Proc, buf gpu.View, dst, tag int) *Request {
	c.checkDst(dst)
	p.Advance(c.ep.world.prof.CallOverhead)
	return &c.inject(buf, dst, tag, false).req
}

// inject is the body of a send once its call overhead is charged; it needs
// only the engine, so a process (Isend) and a script step (exchange) share
// it. lib says who owns the envelope (header.lib).
func (c *Comm) inject(buf gpu.View, dst, tag int, lib bool) *header {
	w := c.ep.world
	prof := &w.prof
	eng := c.ep.dev.Engine()
	srcWorld, dstWorld := c.group[c.rank], c.group[dst]
	l := c.linkTo(dst)

	h := w.newHeader()
	h.src, h.dst, h.ctx, h.tag = srcWorld, dstWorld, c.ctx, tag
	h.seq, h.ps, h.count, h.lib = l.seq, l.ps, buf.Len(), lib
	l.seq++
	h.sGate.SetLabel("gate send")
	bytes := buf.Bytes()
	fab := w.cluster.Fabric
	path := fab.PathBetween(srcWorld, dstWorld)
	cost := w.cluster.Model.Cost(machine.LibMPI, machine.APIHost, path, bytes)

	if h.eager = bytes <= prof.EagerMax; h.eager {
		// Eager: snapshot the payload, inject, and complete locally once
		// the data has left the send buffer.
		w.mEager.Inc()
		h.staged = buf.Clone()
		arrive := fab.Transfer(eng.Now(), srcWorld, dstWorld, bytes, cost)
		eng.After(arrive.Sub(eng.Now()), h.admitFn)
		h.sGate.Fire(eng) // send buffer reusable immediately after staging
		return h
	}

	// Rendezvous: ship the RTS envelope; the payload moves once the
	// receiver matches and returns a CTS. The handshake costs the
	// profile's rendezvous overhead split across RTS and CTS, plus — on a
	// switched topology — the minimal-route switch latency the envelope
	// crosses.
	w.mRendezvous.Inc()
	h.srcBuf = buf
	half := prof.RendezvousOverhead / 2
	rtsWire := half + cost.Latency + fab.InterExtraLatency(srcWorld, dstWorld)
	eng.After(rtsWire, h.admitFn)
	return h
}

// Irecv starts a non-blocking receive into buf from src (comm rank or
// anySource) with the given tag (or anyTag).
func (c *Comm) Irecv(p *sim.Proc, buf gpu.View, src, tag int) *Request {
	p.Advance(c.ep.world.prof.CallOverhead)
	pr := &postedRecv{}
	c.post(pr, buf, src, tag, gpu.View{}, 0)
	return &pr.req
}

// post is the body of a receive once its call overhead is charged, shared
// like inject: it fills pr and matches it against the unexpected queue
// (arrival order) or appends it to the posted queue. A non-zero seed posts a
// reducing receive (see recvReduce), the zero seed an ordinary one.
func (c *Comm) post(pr *postedRecv, buf gpu.View, src, tag int, seed gpu.View, op gpu.ReduceOp) {
	srcWorld := src
	if src != anySource {
		if src < 0 || src >= len(c.group) {
			panic(fmt.Sprintf("mpi: Irecv from invalid rank %d (size %d)", src, len(c.group)))
		}
		srcWorld = c.group[src]
	}
	*pr = postedRecv{
		buf: buf, count: buf.Len(), src: srcWorld, tag: tag, ctx: c.ctx,
		seed: seed, op: op,
	}
	pr.req = Request{done: &pr.done, status: &pr.status}
	pr.done.SetLabel("gate recv")
	ep := c.ep
	for i, h := range ep.unexpected {
		if pr.matches(h) {
			ep.unexpected = slices.Delete(ep.unexpected, i, i+1)
			ep.deliver(h, pr)
			return
		}
	}
	ep.posted = append(ep.posted, pr)
	ep.noteQueueDepth()
}

// Send is the blocking standard-mode send.
func (c *Comm) Send(p *sim.Proc, buf gpu.View, dst, tag int) {
	c.x.send(buf, dst, tag)
	c.exchange(p)
}

// Recv is the blocking receive; it returns the matched message's status.
func (c *Comm) Recv(p *sim.Proc, buf gpu.View, src, tag int) Status {
	c.x.recv(buf, gpu.View{}, src, tag, 0)
	return c.exchange(p)
}

// recvReduce is Recv with reduction as the landing mode: the matched
// message's elements are combined into buf as buf[i] = op(seed[i], msg[i])
// in the one pass that would otherwise copy them, with no staging buffer in
// between. seed is buf itself to accumulate in place, or another buffer
// holding this rank's own contribution, which makes the receive buf's first
// touch (buf need not be initialised, and seed is only read). Protocol,
// matching, virtual time and event counts are exactly Recv's. The payload is
// read where the protocol already holds it stable: the eager snapshot, or —
// rendezvous — the live sender buffer at completion time, while the sender
// is still waiting on its send gate; the sender must therefore not receive
// into the window it is sending from (sendrecvReduce asserts it).
func (c *Comm) recvReduce(p *sim.Proc, buf, seed gpu.View, src, tag int, op gpu.ReduceOp) Status {
	c.x.recv(buf, seed, src, tag, op)
	return c.exchange(p)
}

// sendrecvReduce is a pairwise exchange whose receive half is a recvReduce. The send
// and receive windows must be disjoint: a peer's reducing receive reads
// sendBuf live, so this rank's own incoming reduction must not be writing
// it.
func (c *Comm) sendrecvReduce(p *sim.Proc, sendBuf gpu.View, dst, sendTag int, recvBuf, seed gpu.View, src, recvTag int, op gpu.ReduceOp) Status {
	c.x.sendrecvReduce(sendBuf, dst, sendTag, recvBuf, seed, src, recvTag, op)
	return c.exchange(p)
}

func (ep *endpoint) pair(pk pairKey) *pairState {
	ps := ep.pairs[pk]
	if ps == nil {
		ps = &pairState{}
		ep.pairs[pk] = ps
	}
	return ps
}

// admit enforces per-pair arrival ordering: headers enter matching strictly
// in sequence order, preserving MPI's non-overtaking guarantee even if the
// fabric delivered them out of order. In-order arrival with nothing buffered
// — the overwhelmingly common case on a healthy fabric — bypasses the held
// map entirely.
func (ep *endpoint) admit(h *header) {
	ps := h.ps
	if h.seq == ps.nextRecv && len(ps.held) == 0 {
		ps.nextRecv++
		ep.match(h)
		return
	}
	if ps.held == nil {
		ps.held = map[uint64]*header{}
	}
	ps.held[h.seq] = h
	for {
		next, ok := ps.held[ps.nextRecv]
		if !ok {
			return
		}
		delete(ps.held, ps.nextRecv)
		ps.nextRecv++
		ep.match(next)
	}
}

// match pairs one admitted header against the posted-receive queue.
func (ep *endpoint) match(h *header) {
	for i, pr := range ep.posted {
		if pr.matches(h) {
			ep.posted = slices.Delete(ep.posted, i, i+1)
			ep.deliver(h, pr)
			return
		}
	}
	ep.unexpected = append(ep.unexpected, h)
	ep.noteQueueDepth()
}

// noteQueueDepth records the tag-matching queue high-water mark (posted
// plus unexpected messages of one endpoint).
func (ep *endpoint) noteQueueDepth() {
	ep.world.mMatchDepth.Max(float64(len(ep.posted) + len(ep.unexpected)))
}

// deliver completes a matched (header, receive) pair.
func (ep *endpoint) deliver(h *header, pr *postedRecv) {
	if h.count > pr.count {
		panic(fmt.Sprintf("mpi: message truncation: %d elements into %d (src %d tag %d)",
			h.count, pr.count, h.src, h.tag))
	}
	w := ep.world
	eng := ep.dev.Engine()
	pr.status = Status{source: h.src, tag: h.tag, count: h.count}

	if h.eager {
		// Payload already arrived with the envelope: unpack, hand the
		// staging buffer back to the arena, and complete.
		pr.land(h.staged, h.count)
		h.staged.Release()
		w.retire(h)
		pr.done.Fire(eng)
		return
	}

	// Rendezvous: CTS back to the sender, then the bulk transfer. If a
	// stall window (fault injection) rejects the transfer, the handshake is
	// retried with exponential backoff — as a real rendezvous protocol
	// re-issues the RTS/CTS exchange when the NIC reports the port down.
	half := w.prof.RendezvousOverhead / 2
	bytes := h.srcBuf.Bytes()
	path := w.cluster.Fabric.PathBetween(h.src, h.dst)
	cost := w.cluster.Model.Cost(machine.LibMPI, machine.APIHost, path, bytes)
	var attempt func(backoff sim.Duration)
	attempt = func(backoff sim.Duration) {
		arrive, stall := w.cluster.Fabric.TryTransfer(eng.Now(), h.src, h.dst, bytes, cost)
		if stall != nil {
			w.mRetries.Inc()
			// Wait out the stall (or at least the backoff), then re-run
			// the handshake with the backoff doubled.
			wait := backoff
			if d := stall.Until.Sub(eng.Now()); d > wait {
				wait = d
			}
			next := backoff * 2
			if next > rendezvousBackoffMax {
				next = rendezvousBackoffMax
			}
			eng.After(wait, func() { attempt(next) })
			return
		}
		eng.After(arrive.Sub(eng.Now()), func() {
			pr.land(h.srcBuf, h.count)
			pr.done.Fire(eng)
			h.sGate.Fire(eng)
		})
	}
	eng.After(sim.Duration(half), func() { attempt(rendezvousBackoffBase) })
}

// Rendezvous retry backoff bounds: the first retry after a rejected
// transfer waits at least the base; subsequent retries double up to the cap.
const (
	rendezvousBackoffBase = sim.Microsecond
	rendezvousBackoffMax  = 100 * sim.Microsecond
)

// AppendQueues appends the shapes of the rank's matching queues for a
// fast-forward digest (sim.Engine.AppendState): each posted receive and each
// unexpected message as its source, tag and length, in queue order, and the
// count of messages held back for ordering. A reserved tag of this handle's
// collectives is encoded relative to the handle's collective sequence, which
// every collective advances.
func (c *Comm) AppendQueues(b []byte) []byte {
	ep := c.ep
	entry := func(src, ctx, tag, count int) {
		if ctx == c.ctx && tag >= maxUserTag {
			tag = tag - maxUserTag - int(c.coll%collWindow)<<collRoundBits
		}
		b = binary.AppendVarint(b, int64(src))
		b = binary.AppendVarint(b, int64(ctx))
		b = binary.AppendVarint(b, int64(tag))
		b = binary.AppendVarint(b, int64(count))
	}
	b = binary.AppendUvarint(b, uint64(len(ep.posted)))
	for _, pr := range ep.posted {
		entry(pr.src, pr.ctx, pr.tag, pr.count)
	}
	b = binary.AppendUvarint(b, uint64(len(ep.unexpected)))
	for _, h := range ep.unexpected {
		entry(h.src, h.ctx, h.tag, h.count)
	}
	held := 0
	for _, ps := range ep.pairs {
		held += len(ps.held)
	}
	return binary.AppendUvarint(b, uint64(held))
}
