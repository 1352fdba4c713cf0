package gpuccl

import (
	"cmp"
	"encoding/binary"
	"maps"
	"slices"

	"repro/internal/gpu"
	"repro/internal/lockstep"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Collective and point-to-point operations. All are stream-ordered and
// asynchronous with respect to the host: completion is observed by
// synchronizing the stream (or an event recorded after the op).

// AllReduce reduces sendBuf elementwise across ranks into recvBuf on every
// rank (in-place allowed). Up to allReduceTreeMax: recursive-doubling exchange
// (the library's LL/tree path), log2(n) full-size rounds. Above: ring,
// reduce-scatter then allgather, 2(n-1) lockstep chunk steps.
func (c *Comm) AllReduce(p *sim.Proc, s *gpu.Stream, sendBuf, recvBuf gpu.View, opr gpu.ReduceOp) {
	key := c.opKey("allreduce")
	c.submit(p, s, op{label: "allreduce", hist: c.w.mColl["allreduce"], coll: func() *lockstep.Walk {
		n, count, bytes := c.Size(), sendBuf.Len(), sendBuf.Bytes()
		data := lockstep.ReduceThenCopy(count, opr)
		if bytes <= allReduceTreeMax {
			return c.collective(key, sendBuf, recvBuf, data, lockstep.Log2Ceil(n),
				func(r int) (int, int64) { return c.g.Rank ^ (1 << r), bytes })
		}
		starts := chunkSizes(count, n)
		es := int64(sendBuf.ElemSize())
		return c.collective(key, sendBuf, recvBuf, data, 2*(n-1), c.ring(func(step int) int64 {
			idx := c.g.Rank - step // reduce-scatter
			if step >= n-1 {
				idx = c.g.Rank + 1 - (step - (n - 1)) // allgather
			}
			idx = (idx%n + n) % n
			return int64(starts[idx+1]-starts[idx]) * es
		}))
	}})
}

// Reduce combines sendBuf across ranks into recvBuf on root (ring pipeline
// toward the root).
func (c *Comm) Reduce(p *sim.Proc, s *gpu.Stream, sendBuf, recvBuf gpu.View, opr gpu.ReduceOp, root int) {
	key := c.opKey("reduce")
	c.submit(p, s, op{label: "reduce", hist: c.w.mColl["reduce"], coll: func() *lockstep.Walk {
		count := sendBuf.Len()
		plan := c.pipelinePlan(sendBuf.Bytes(), root, false)
		return c.collective(key, sendBuf, recvBuf, func(sends, recvs []gpu.View) {
			if !recvs[root].IsZero() {
				gpu.ReduceAll(recvs[root], sends, count, opr)
			}
		}, len(plan), c.ring(func(step int) int64 { return plan[step] }))
	}})
}

// Broadcast sends root's buf to all ranks (chunked ring pipeline from the
// root).
func (c *Comm) Broadcast(p *sim.Proc, s *gpu.Stream, buf gpu.View, root int) {
	key := c.opKey("broadcast")
	c.submit(p, s, op{label: "broadcast", hist: c.w.mColl["broadcast"], coll: func() *lockstep.Walk {
		plan := c.pipelinePlan(buf.Bytes(), root, true)
		return c.collective(key, buf, buf, lockstep.CopyFrom(root),
			len(plan), c.ring(func(step int) int64 { return plan[step] }))
	}})
}

// pipelinePlan builds the per-rank send plan — bytes forwarded in each step,
// zero for none — of a chunked store-and-forward ring rooted at root. Data
// flows root → root+1 → …; with k chunks the pipeline takes (n-2)+k steps.
// For the reverse (reduce) direction the flow is toward the root and the plan
// mirrors.
func (c *Comm) pipelinePlan(totalBytes int64, root int, fromRoot bool) []int64 {
	n, rank := c.Size(), c.g.Rank
	if n == 1 {
		return nil
	}
	k := int(totalBytes / (512 << 10))
	if k < 1 {
		k = 1
	}
	if k > 8 {
		k = 8
	}
	chunk := (totalBytes + int64(k) - 1) / int64(k)
	steps := (n - 2) + k
	plan := make([]int64, steps)
	// Distance from the root along the flow direction.
	var dist int
	if fromRoot {
		dist = ((rank-root)%n + n) % n
	} else {
		dist = ((root-rank)%n + n) % n
		// For reduce, "sending" means forwarding the partial toward the
		// root; a rank at distance d sends during steps [n-1-d … n-1-d+k).
		dist = n - 1 - dist
	}
	for st := 0; st < steps; st++ {
		chunkIdx := st - dist
		if fromRoot {
			// Rank at distance d forwards chunk c at step d+c; the last
			// rank in the ring receives but never forwards.
			if dist < n-1 && chunkIdx >= 0 && chunkIdx < k {
				plan[st] = chunk
			}
		} else {
			if dist >= 0 && chunkIdx >= 0 && chunkIdx < k && rank != root {
				plan[st] = chunk
			}
		}
	}
	return plan
}

// pairFIFO matches Send and Recv calls per (src, dst) pair in issue order.
type pairFIFO struct {
	w                  *World
	srcW, dstW         int // world ranks of the pair
	nextSend, nextRecv uint64
	msgs               map[uint64]*p2pMsg
	free               []*p2pMsg // completed messages, recycled by msg
}

// p2pSide is one end of a message: the Send or the Recv op once its kernel
// has started it.
type p2pSide struct {
	started bool
	k       *kernel // the kernel to notify; nil once notified or revoked
	view    gpu.View
	hist    *metrics.Histogram
	at      sim.Time // when the op started on the skip-free clock (sim.Engine.SkipFreeNow), for hist
}

// done completes the side's op, if its kernel still waits for it.
func (sd *p2pSide) done(eng *sim.Engine) {
	if sd.k != nil {
		sd.hist.Observe(int64(eng.SkipFreeNow().Sub(sd.at)))
		sd.k.opDone(eng, nil)
		sd.k = nil
	}
}

// p2pMsg is one Send/Recv pair: a run-to-completion state machine driven by
// the two kernels that start its sides and by engine callbacks; no process
// blocks on it. Once both sides have started, book reserves the fabric — at
// once when the sender is the later side, through a zero-delay callback when
// the receiver is, which is the instant and the event order in which a woken
// sender process used to book — and deliver, at arrival, copies the payload
// and completes both ops. State and callbacks are embedded and bound once, so
// a recycled message allocates nothing.
type p2pMsg struct {
	f          *pairFIFO
	seq        uint64
	send, recv p2pSide
	// inFlight is set while an engine callback holds the message: it must not
	// be recycled until that callback has run.
	inFlight          bool
	bookFn, deliverFn func()
}

func (w *World) pairFIFO(c *Comm, src, dst int) *pairFIFO {
	k := pairKey{c.g.ID, src, dst}
	f := w.shared.pairs[k]
	if f == nil {
		f = &pairFIFO{w: w, srcW: c.worldOf(src), dstW: c.worldOf(dst), msgs: map[uint64]*p2pMsg{}}
		w.shared.pairs[k] = f
	}
	return f
}

// msg returns the message with sequence number seq, creating it on the first
// side to ask.
func (f *pairFIFO) msg(seq uint64) *p2pMsg {
	m := f.msgs[seq]
	if m == nil {
		if n := len(f.free); n > 0 {
			m, f.free = f.free[n-1], f.free[:n-1]
		} else {
			m = &p2pMsg{f: f}
			m.bookFn, m.deliverFn = m.book, m.deliver
		}
		m.seq = seq
		f.msgs[seq] = m
	}
	return m
}

// release retires a message no kernel and no callback refers to any more.
func (m *p2pMsg) release() {
	delete(m.f.msgs, m.seq)
	m.send, m.recv = p2pSide{}, p2pSide{}
	m.f.free = append(m.f.free, m)
}

// start begins o, one side of a point-to-point message, inside kernel k.
func (o *op) start(eng *sim.Engine, k *kernel) {
	m := o.f.msg(o.seq)
	side := p2pSide{started: true, k: k, view: o.view, hist: o.hist, at: eng.SkipFreeNow()}
	if o.send {
		m.send = side
		if m.recv.started {
			m.book()
		}
		return
	}
	m.recv = side
	if m.send.started {
		m.inFlight = true
		eng.After(0, m.bookFn)
	}
}

// revoke withdraws kernel k from o's message when k is torn down with the op
// still outstanding: a later callback then completes only the other side.
func (o *op) revoke(k *kernel) {
	m := o.f.msgs[o.seq]
	if m == nil {
		return // already delivered
	}
	side := &m.recv
	if o.send {
		side = &m.send
	}
	if side.k == k {
		side.k = nil
		m.revoked()
	}
}

// book runs once both kernels are running: it moves the bytes.
func (m *p2pMsg) book() {
	m.inFlight = false
	if m.send.k == nil { // the sender was revoked before the receiver reached it
		m.revoked()
		return
	}
	cl := m.f.w.cluster
	eng, bytes := cl.Eng, m.send.view.Bytes()
	var arrive sim.Time
	// A partitioned fabric aborts the booking; that fails the sender's op,
	// and the receiver keeps waiting for a delivery that never comes.
	if err := sim.Protect(func() {
		cost := cl.Model.Cost(machine.LibGPUCCL, machine.APIHost, cl.Fabric.PathBetween(m.f.srcW, m.f.dstW), bytes)
		arrive = cl.Fabric.Transfer(eng.Now(), m.f.srcW, m.f.dstW, bytes, cost)
	}); err != nil {
		m.send.k.opDone(eng, err)
		m.send.k = nil
		m.revoked()
		return
	}
	m.inFlight = true
	eng.After(arrive.Sub(eng.Now()), m.deliverFn)
}

// deliver is the arrival callback: the payload lands and both ops complete,
// the receiver's first.
func (m *p2pMsg) deliver() {
	eng := m.f.w.cluster.Eng
	gpu.Copy(m.recv.view, m.send.view, m.send.view.Len())
	m.recv.done(eng)
	m.send.done(eng)
	m.release()
}

// revoked retires the message if neither kernel waits on it any longer and
// no callback is still due.
func (m *p2pMsg) revoked() {
	if !m.inFlight && m.send.k == nil && m.recv.k == nil {
		m.release()
	}
}

// Send transmits buf to peer, matching the peer's Recv issued in the same
// relative order (ncclSend). Deadlock-free only inside a group when
// exchanging with mutual peers, exactly like NCCL.
func (c *Comm) Send(p *sim.Proc, s *gpu.Stream, buf gpu.View, peer int) {
	f := c.w.pairFIFO(c, c.g.Rank, peer)
	f.nextSend++
	c.submit(p, s, op{label: c.w.sendLabels.For(peer), hist: c.w.mColl["send"],
		f: f, seq: f.nextSend, view: buf, send: true})
}

// Recv receives into buf from peer, matching the peer's Send (ncclRecv).
func (c *Comm) Recv(p *sim.Proc, s *gpu.Stream, buf gpu.View, peer int) {
	f := c.w.pairFIFO(c, peer, c.g.Rank)
	f.nextRecv++
	c.submit(p, s, op{label: c.w.recvLabels.For(peer), hist: c.w.mColl["recv"],
		f: f, seq: f.nextRecv, view: buf})
}

// AppendPending appends the world's unfinished point-to-point messages for a
// fast-forward digest (sim.Engine.AppendState): per (communicator, source,
// destination) stream in key order, how far sends lead receives and, for
// each message still held, which sides have started and whether a callback
// holds it. Group state (an open GroupStart) is per rank and reported too.
func (c *Comm) AppendPending(b []byte) []byte {
	w := c.w
	keys := slices.SortedFunc(maps.Keys(w.shared.pairs), func(x, y pairKey) int {
		return cmp.Or(cmp.Compare(x.comm, y.comm), cmp.Compare(x.src, y.src), cmp.Compare(x.dst, y.dst))
	})
	var seqs []uint64
	for _, k := range keys {
		f := w.shared.pairs[k]
		b = binary.AppendVarint(b, int64(f.nextSend-f.nextRecv))
		seqs = slices.AppendSeq(seqs[:0], maps.Keys(f.msgs))
		slices.Sort(seqs)
		for _, seq := range seqs {
			m := f.msgs[seq]
			b = binary.AppendVarint(b, int64(seq)-int64(f.nextRecv))
			var sides byte
			for i, v := range [...]bool{m.send.started, m.recv.started, m.inFlight} {
				if v {
					sides |= 1 << i
				}
			}
			b = append(b, sides)
		}
		b = append(b, 0xff)
	}
	for _, g := range w.groups {
		b = binary.AppendUvarint(b, uint64(g.depth))
		b = binary.AppendUvarint(b, uint64(len(g.pending)))
	}
	return b
}
