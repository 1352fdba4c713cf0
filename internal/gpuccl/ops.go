package gpuccl

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/lockstep"
	"repro/internal/machine"
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
	c.submit(p, s, op{label: "allreduce", run: func(sp *sim.Proc) {
		n, count, bytes := c.Size(), sendBuf.Len(), sendBuf.Bytes()
		data := lockstep.ReduceThenCopy(count, opr)
		if bytes <= allReduceTreeMax {
			c.collective(sp, key, sendBuf, recvBuf, data, lockstep.Log2Ceil(n),
				func(r int) (int, int64) { return c.g.Rank ^ (1 << r), bytes })
			return
		}
		starts := chunkSizes(count, n)
		es := int64(sendBuf.ElemSize())
		c.collective(sp, key, sendBuf, recvBuf, data, 2*(n-1), c.ring(func(step int) int64 {
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
	c.submit(p, s, op{label: "reduce", run: func(sp *sim.Proc) {
		count := sendBuf.Len()
		plan := c.pipelinePlan(sendBuf.Bytes(), root, false)
		c.collective(sp, key, sendBuf, recvBuf, func(sends, recvs []gpu.View) {
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
	c.submit(p, s, op{label: "broadcast", run: func(sp *sim.Proc) {
		plan := c.pipelinePlan(buf.Bytes(), root, true)
		c.collective(sp, key, buf, buf, lockstep.CopyFrom(root),
			len(plan), c.ring(func(step int) int64 { return plan[step] }))
	}})
}

// AllGather concatenates every rank's sendBuf into recvBuf on all ranks
// (recvBuf holds Size()*sendBuf.Len() elements; ring, n-1 steps).
func (c *Comm) AllGather(p *sim.Proc, s *gpu.Stream, sendBuf, recvBuf gpu.View) {
	key := c.opKey("allgather")
	c.submit(p, s, op{label: "allgather", run: func(sp *sim.Proc) {
		count, bytes := sendBuf.Len(), sendBuf.Bytes()
		c.collective(sp, key, sendBuf, recvBuf,
			lockstep.Gather(func(r int) (int, int) { return r * count, count }),
			c.Size()-1, c.ring(func(int) int64 { return bytes }))
	}})
}

// ReduceScatter reduces across ranks and leaves rank r with chunk r of the
// result in recvBuf (sendBuf holds Size()*recvBuf.Len() elements; ring, n-1
// steps).
func (c *Comm) ReduceScatter(p *sim.Proc, s *gpu.Stream, sendBuf, recvBuf gpu.View, opr gpu.ReduceOp) {
	key := c.opKey("reducescatter")
	c.submit(p, s, op{label: "reducescatter", run: func(sp *sim.Proc) {
		count, bytes := recvBuf.Len(), recvBuf.Bytes()
		c.collective(sp, key, sendBuf, recvBuf, func(sends, recvs []gpu.View) {
			chunks := make([]gpu.View, len(sends))
			for r, dst := range recvs {
				for src := range chunks {
					chunks[src] = sends[src].Slice(r*count, count)
				}
				gpu.ReduceAll(dst, chunks, count, opr)
			}
		}, c.Size()-1, c.ring(func(int) int64 { return bytes }))
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
	f := c.w.pairFIFO(c.g.ID, c.g.Rank, peer)
	seq := f.nextSend
	f.nextSend++
	c.submit(p, s, op{label: fmt.Sprintf("send->%d", peer), run: func(sp *sim.Proc) {
		m := f.msg(seq, c.g.Rank, peer)
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
	f := c.w.pairFIFO(c.g.ID, peer, c.g.Rank)
	seq := f.nextRecv
	f.nextRecv++
	c.submit(p, s, op{label: fmt.Sprintf("recv<-%d", peer), run: func(sp *sim.Proc) {
		m := f.msg(seq, peer, c.g.Rank)
		m.dstView = buf
		m.haveDst = true
		if m.haveSrc {
			m.bothReady.Fire(sp.Engine())
		}
		m.delivered.Wait(sp)
	}})
}
