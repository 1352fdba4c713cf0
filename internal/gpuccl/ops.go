package gpuccl

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Collective and point-to-point operations. All are stream-ordered and
// asynchronous with respect to the host: completion is observed by
// synchronizing the stream (or an event recorded after the op).

// AllReduce reduces sendBuf elementwise across ranks into recvBuf on every
// rank (in-place allowed). Ring algorithm: reduce-scatter then allgather,
// 2(n-1) lockstep chunk steps.
func (c *Comm) AllReduce(p *sim.Proc, s *gpu.Stream, sendBuf, recvBuf gpu.View, opr gpu.ReduceOp) {
	key := c.opKey("allreduce")
	n := c.Size()
	count := sendBuf.Len()
	c.submit(p, s, op{label: "allreduce", run: func(sp *sim.Proc) {
		inst := c.instanceFor(key)
		inst.arrive(sp, c, sendBuf, recvBuf, key, func(inst *instance) {
			// Accumulate in rank 0's destination and fan out from it. Every
			// send is consumed before any other destination — which may be
			// its rank's send buffer — is overwritten.
			gpu.ReduceAll(inst.recvs[0], inst.sends, count, opr)
			for r := 1; r < n; r++ {
				gpu.Copy(inst.recvs[r], inst.recvs[0], count)
			}
		})
		if sendBuf.Bytes() <= allReduceTreeMax {
			// Latency-bound: recursive-doubling exchange (the library's
			// LL/tree path), log2(n) full-size rounds.
			c.runExchange(sp, inst, log2Ceil(n),
				func(r int) int { return c.rank ^ (1 << r) }, sendBuf.Bytes())
			return
		}
		starts := chunkSizes(count, n)
		es := int64(sendBuf.ElemSize())
		plan := make([]ringStep, 0, 2*(n-1))
		for step := 0; step < n-1; step++ { // reduce-scatter
			idx := ((c.rank-step)%n + n) % n
			plan = append(plan, ringStep{send: true, bytes: int64(starts[idx+1]-starts[idx]) * es})
		}
		for step := 0; step < n-1; step++ { // allgather
			idx := ((c.rank+1-step)%n + n) % n
			plan = append(plan, ringStep{send: true, bytes: int64(starts[idx+1]-starts[idx]) * es})
		}
		c.runRing(sp, inst, plan)
	}})
}

// Reduce combines sendBuf across ranks into recvBuf on root (ring pipeline
// toward the root).
func (c *Comm) Reduce(p *sim.Proc, s *gpu.Stream, sendBuf, recvBuf gpu.View, opr gpu.ReduceOp, root int) {
	key := c.opKey("reduce")
	count := sendBuf.Len()
	c.submit(p, s, op{label: "reduce", run: func(sp *sim.Proc) {
		inst := c.instanceFor(key)
		inst.arrive(sp, c, sendBuf, recvBuf, key, func(inst *instance) {
			if !inst.recvs[root].IsZero() {
				gpu.ReduceAll(inst.recvs[root], inst.sends, count, opr)
			}
		})
		c.runRing(sp, inst, c.pipelinePlan(sendBuf.Bytes(), root, false))
	}})
}

// Broadcast sends root's buf to all ranks (chunked ring pipeline from the
// root).
func (c *Comm) Broadcast(p *sim.Proc, s *gpu.Stream, buf gpu.View, root int) {
	key := c.opKey("broadcast")
	c.submit(p, s, op{label: "broadcast", run: func(sp *sim.Proc) {
		inst := c.instanceFor(key)
		inst.arrive(sp, c, buf, buf, key, func(inst *instance) {
			src := inst.sends[root]
			for r := range inst.recvs {
				if r != root {
					gpu.Copy(inst.recvs[r], src, src.Len())
				}
			}
		})
		c.runRing(sp, inst, c.pipelinePlan(buf.Bytes(), root, true))
	}})
}

// AllGather concatenates every rank's sendBuf into recvBuf on all ranks
// (recvBuf holds Size()*sendBuf.Len() elements; ring, n-1 steps).
func (c *Comm) AllGather(p *sim.Proc, s *gpu.Stream, sendBuf, recvBuf gpu.View) {
	key := c.opKey("allgather")
	n := c.Size()
	count := sendBuf.Len()
	c.submit(p, s, op{label: "allgather", run: func(sp *sim.Proc) {
		inst := c.instanceFor(key)
		inst.arrive(sp, c, sendBuf, recvBuf, key, func(inst *instance) {
			for r := 0; r < n; r++ {
				for dst := 0; dst < n; dst++ {
					gpu.Copy(inst.recvs[dst].Slice(r*count, count), inst.sends[r], count)
				}
			}
		})
		plan := make([]ringStep, n-1)
		bytes := sendBuf.Bytes()
		for i := range plan {
			plan[i] = ringStep{send: true, bytes: bytes}
		}
		c.runRing(sp, inst, plan)
	}})
}

// ReduceScatter reduces across ranks and leaves rank r with chunk r of the
// result in recvBuf (sendBuf holds Size()*recvBuf.Len() elements).
func (c *Comm) ReduceScatter(p *sim.Proc, s *gpu.Stream, sendBuf, recvBuf gpu.View, opr gpu.ReduceOp) {
	key := c.opKey("reducescatter")
	n := c.Size()
	count := recvBuf.Len()
	c.submit(p, s, op{label: "reducescatter", run: func(sp *sim.Proc) {
		inst := c.instanceFor(key)
		inst.arrive(sp, c, sendBuf, recvBuf, key, func(inst *instance) {
			chunks := make([]gpu.View, n)
			for r := 0; r < n; r++ {
				for src := range chunks {
					chunks[src] = inst.sends[src].Slice(r*count, count)
				}
				gpu.ReduceAll(inst.recvs[r], chunks, count, opr)
			}
		})
		plan := make([]ringStep, n-1)
		bytes := recvBuf.Bytes()
		for i := range plan {
			plan[i] = ringStep{send: true, bytes: bytes}
		}
		c.runRing(sp, inst, plan)
	}})
}

// pipelinePlan builds the per-rank send plan of a chunked store-and-forward
// ring rooted at root. Data flows root → root+1 → …; with k chunks the
// pipeline takes (n-2)+k steps. For the reverse (reduce) direction the flow
// is toward the root and the plan mirrors.
func (c *Comm) pipelinePlan(totalBytes int64, root int, fromRoot bool) []ringStep {
	n := c.Size()
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
	plan := make([]ringStep, steps)
	// Distance from the root along the flow direction.
	var dist int
	if fromRoot {
		dist = ((c.rank-root)%n + n) % n
	} else {
		dist = ((root-c.rank)%n + n) % n
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
				plan[st] = ringStep{send: true, bytes: chunk}
			}
		} else {
			if dist >= 0 && chunkIdx >= 0 && chunkIdx < k && c.rank != root {
				plan[st] = ringStep{send: true, bytes: chunk}
			}
		}
	}
	return plan
}

// pairFIFO matches Send and Recv calls per (src, dst) pair in issue order.
type pairFIFO struct {
	nextSend, nextRecv uint64
	msgs               map[uint64]*p2pMsg
}

type p2pMsg struct {
	src, dst  int
	srcView   gpu.View
	dstView   gpu.View
	haveSrc   bool
	haveDst   bool
	bothReady *sim.Gate
	delivered *sim.Gate
}

func (w *World) pairFIFO(comm uint64, src, dst int) *pairFIFO {
	k := pairKey{comm, src, dst}
	f := w.shared.pairs[k]
	if f == nil {
		f = &pairFIFO{msgs: map[uint64]*p2pMsg{}}
		w.shared.pairs[k] = f
	}
	return f
}

func (f *pairFIFO) msg(seq uint64, src, dst int) *p2pMsg {
	m := f.msgs[seq]
	if m == nil {
		m = &p2pMsg{
			src: src, dst: dst,
			bothReady: sim.NewGate(fmt.Sprintf("ccl-p2p-ready-%d-%d-%d", src, dst, seq)),
			delivered: sim.NewGate(fmt.Sprintf("ccl-p2p-done-%d-%d-%d", src, dst, seq)),
		}
		f.msgs[seq] = m
	}
	return m
}

// Send transmits buf to peer, matching the peer's Recv issued in the same
// relative order (ncclSend). Deadlock-free only inside a group when
// exchanging with mutual peers, exactly like NCCL.
func (c *Comm) Send(p *sim.Proc, s *gpu.Stream, buf gpu.View, peer int) {
	f := c.w.pairFIFO(c.commID, c.rank, peer)
	seq := f.nextSend
	f.nextSend++
	c.submit(p, s, op{label: fmt.Sprintf("send->%d", peer), run: func(sp *sim.Proc) {
		m := f.msg(seq, c.rank, peer)
		m.srcView = buf
		m.haveSrc = true
		if m.haveDst {
			m.bothReady.Fire(sp.Engine())
		}
		m.bothReady.Wait(sp)
		// Both kernels running: move the bytes.
		fab := c.w.cluster.Fabric
		bytes := buf.Bytes()
		srcW, dstW := c.myWorld(), c.worldOf(peer)
		cost := c.w.cluster.Cost(machine.LibGPUCCL, machine.APIHost, fab.PathBetween(srcW, dstW), bytes)
		end := fab.Transfer(sp.Now(), srcW, dstW, bytes, cost)
		eng := sp.Engine()
		eng.After(end.Sub(eng.Now()), func() {
			gpu.Copy(m.dstView, m.srcView, m.srcView.Len())
			m.delivered.Fire(eng)
		})
		m.delivered.Wait(sp)
		delete(f.msgs, seq)
	}})
}

// Recv receives into buf from peer, matching the peer's Send (ncclRecv).
func (c *Comm) Recv(p *sim.Proc, s *gpu.Stream, buf gpu.View, peer int) {
	f := c.w.pairFIFO(c.commID, peer, c.rank)
	seq := f.nextRecv
	f.nextRecv++
	c.submit(p, s, op{label: fmt.Sprintf("recv<-%d", peer), run: func(sp *sim.Proc) {
		m := f.msg(seq, peer, c.rank)
		m.dstView = buf
		m.haveDst = true
		if m.haveSrc {
			m.bothReady.Fire(sp.Engine())
		}
		m.delivered.Wait(sp)
	}})
}
