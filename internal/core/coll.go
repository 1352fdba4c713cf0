package core

import (
	"repro/internal/gpu"
)

// Collective operations (paper §IV-F3, Listing 7). Backend mapping follows
// §V-A (Semantic Coverage): operations map directly when the backend has a
// native equivalent; otherwise UNICONN composes them from grouped P2P
// primitives (GPUCCL) or Put/Get with barriers (GPUSHMEM).

// AllReduce reduces count elements elementwise across the communicator into
// recv on every rank. Use send == recv (same pointer) for the in-place
// variant.
func AllReduce[T gpu.Elem](c *Coordinator, op gpu.ReduceOp, send, recv Ptr[T], count int, comm *Communicator) {
	env := c.env
	env.dispatch()
	comm.check()
	switch env.Backend() {
	case MPIBackend:
		c.mpiStreamGuard()
		comm.mpic.Allreduce(env.p, send.View(count), recv.View(count), op)
	case GpucclBackend:
		comm.cclc.AllReduce(env.p, c.stream, send.View(count), recv.View(count), op)
	default:
		comm.team.AllReduceOnStream(env.p, c.stream, send.View(count), recv.View(count), op)
	}
}

// AllReduceInPlace is the +In-Place variant: the buffer is both source and
// destination.
func AllReduceInPlace[T gpu.Elem](c *Coordinator, op gpu.ReduceOp, buf Ptr[T], count int, comm *Communicator) {
	AllReduce(c, op, buf, buf, count, comm)
}

// Reduce combines count elements across ranks into recv on root. recv may
// be the nil pointer on non-root ranks.
func Reduce[T gpu.Elem](c *Coordinator, op gpu.ReduceOp, send, recv Ptr[T], count int, root int, comm *Communicator) {
	env := c.env
	env.dispatch()
	comm.check()
	switch env.Backend() {
	case MPIBackend:
		c.mpiStreamGuard()
		var rv gpu.View
		if !recv.IsNil() {
			rv = recv.View(count)
		}
		comm.mpic.Reduce(env.p, send.View(count), rv, op, root)
	case GpucclBackend:
		var rv gpu.View
		if !recv.IsNil() {
			rv = recv.View(count)
		}
		comm.cclc.Reduce(env.p, c.stream, send.View(count), rv, op, root)
	default:
		// GPUSHMEM has no rooted reduction team op here: emulate with an
		// allreduce whose non-root results land in scratch (§V-A).
		var rv gpu.View
		if comm.GlobalRank() == root && !recv.IsNil() {
			rv = recv.View(count)
		} else {
			rv = send.View(count).Scratch()
		}
		comm.team.AllReduceOnStream(env.p, c.stream, send.View(count), rv, op)
	}
}

// Broadcast sends count elements at buf from root to every rank.
func Broadcast[T gpu.Elem](c *Coordinator, buf Ptr[T], count int, root int, comm *Communicator) {
	env := c.env
	env.dispatch()
	comm.check()
	switch env.Backend() {
	case MPIBackend:
		c.mpiStreamGuard()
		comm.mpic.Bcast(env.p, buf.View(count), root)
	case GpucclBackend:
		comm.cclc.Broadcast(env.p, c.stream, buf.View(count), root)
	default:
		comm.team.BroadcastOnStream(env.p, c.stream, buf.View(count), root)
	}
}

// Gather collects count elements from every rank into recv on root
// (recv holds GlobalSize()*count elements there).
func Gather[T gpu.Elem](c *Coordinator, send, recv Ptr[T], count int, root int, comm *Communicator) {
	n := comm.GlobalSize()
	counts := make([]int, n)
	displs := make([]int, n)
	for i := range counts {
		counts[i] = count
		displs[i] = i * count
	}
	Gatherv(c, send, recv, counts, displs, root, comm)
}

// Gatherv is the +Vectorized gather: rank r contributes counts[r] elements
// landing at displs[r] in root's recv.
func Gatherv[T gpu.Elem](c *Coordinator, send, recv Ptr[T], counts, displs []int, root int, comm *Communicator) {
	env := c.env
	env.dispatch()
	comm.check()
	me := comm.GlobalRank()
	n := comm.GlobalSize()
	mine := counts[me]
	switch env.Backend() {
	case MPIBackend:
		c.mpiStreamGuard()
		var rv gpu.View
		if me == root {
			rv = recv.View(displs[n-1] + counts[n-1])
		}
		comm.mpic.Gatherv(env.p, send.View(mine), rv, counts, displs, root)
	case GpucclBackend:
		// No native gather: grouped P2P (§V-A).
		ccl := comm.cclc
		ccl.GroupStart()
		if me == root {
			for r := 0; r < n; r++ {
				if r == me {
					continue
				}
				ccl.Recv(env.p, c.stream, recv.Add(displs[r]).View(counts[r]), r)
			}
		} else {
			ccl.Send(env.p, c.stream, send.View(mine), root)
		}
		ccl.GroupEnd(env.p, c.stream)
		if me == root {
			c.stream.MemcpyAsync(env.p, recv.Add(displs[me]).View(mine), send.View(mine), mine)
		}
	default:
		// Put/Get emulation: every rank receives the concatenation; the
		// non-root copies land in the (symmetric) recv allocation too,
		// which Gather's contract permits to be scratch off-root.
		comm.team.AllGathervOnStream(env.p, c.stream, send.View(mine),
			recv.View(displs[n-1]+counts[n-1]), counts, displs)
	}
}

// Scatter distributes count-element chunks of root's send buffer to every
// rank's recv.
func Scatter[T gpu.Elem](c *Coordinator, send, recv Ptr[T], count int, root int, comm *Communicator) {
	n := comm.GlobalSize()
	counts := make([]int, n)
	displs := make([]int, n)
	for i := range counts {
		counts[i] = count
		displs[i] = i * count
	}
	Scatterv(c, send, recv, counts, displs, root, comm)
}

// Scatterv is the +Vectorized scatter from root.
func Scatterv[T gpu.Elem](c *Coordinator, send, recv Ptr[T], counts, displs []int, root int, comm *Communicator) {
	env := c.env
	env.dispatch()
	comm.check()
	me := comm.GlobalRank()
	n := comm.GlobalSize()
	mine := counts[me]
	switch env.Backend() {
	case MPIBackend:
		c.mpiStreamGuard()
		var sv gpu.View
		if me == root {
			sv = send.View(displs[n-1] + counts[n-1])
		}
		comm.mpic.Scatterv(env.p, sv, recv.View(mine), counts, displs, root)
	case GpucclBackend:
		ccl := comm.cclc
		ccl.GroupStart()
		if me == root {
			for r := 0; r < n; r++ {
				if r == me {
					continue
				}
				ccl.Send(env.p, c.stream, send.Add(displs[r]).View(counts[r]), r)
			}
		} else {
			ccl.Recv(env.p, c.stream, recv.View(mine), root)
		}
		ccl.GroupEnd(env.p, c.stream)
		if me == root {
			c.stream.MemcpyAsync(env.p, recv.View(mine), send.Add(displs[me]).View(mine), mine)
		}
	default:
		// Root puts each chunk into the peer's symmetric recv, then all
		// synchronize so the data is visible.
		pe := comm.pe
		if me == root {
			for r := 0; r < n; r++ {
				if r == me {
					c.stream.MemcpyAsync(env.p, recv.View(mine), send.Add(displs[me]).View(mine), mine)
					continue
				}
				pe.PutOnStream(env.p, c.stream, recv.symRef(counts[r]),
					send.Add(displs[r]).View(counts[r]), counts[r], comm.worldOf(r))
			}
			pe.QuietOnStream(env.p, c.stream)
		}
		comm.team.BarrierOnStream(env.p, c.stream)
	}
}

// AllGather concatenates count elements from every rank into recv
// (GlobalSize()*count elements) on all ranks.
func AllGather[T gpu.Elem](c *Coordinator, send, recv Ptr[T], count int, comm *Communicator) {
	n := comm.GlobalSize()
	counts := make([]int, n)
	displs := make([]int, n)
	for i := range counts {
		counts[i] = count
		displs[i] = i * count
	}
	AllGatherv(c, send, recv, counts, displs, comm)
}

// AllGatherv is the variable-size allgather used by the paper's CG solver
// (§VI-D). GPUCCL has no native allgatherv: UNICONN composes it from
// grouped Send/Recv.
func AllGatherv[T gpu.Elem](c *Coordinator, send, recv Ptr[T], counts, displs []int, comm *Communicator) {
	env := c.env
	env.dispatch()
	comm.check()
	me := comm.GlobalRank()
	n := comm.GlobalSize()
	mine := counts[me]
	total := displs[n-1] + counts[n-1]
	switch env.Backend() {
	case MPIBackend:
		c.mpiStreamGuard()
		comm.mpic.Allgatherv(env.p, send.View(mine), recv.View(total), counts, displs)
	case GpucclBackend:
		ccl := comm.cclc
		ccl.GroupStart()
		for r := 0; r < n; r++ {
			if r == me {
				continue
			}
			ccl.Send(env.p, c.stream, send.View(mine), r)
			ccl.Recv(env.p, c.stream, recv.Add(displs[r]).View(counts[r]), r)
		}
		ccl.GroupEnd(env.p, c.stream)
		c.stream.MemcpyAsync(env.p, recv.Add(displs[me]).View(mine), send.View(mine), mine)
	default:
		comm.team.AllGathervOnStream(env.p, c.stream, send.View(mine), recv.View(total), counts, displs)
	}
}

// AlltoAllv is the +Vectorized all-to-all of Listing 7: rank me sends
// sendCounts[r] elements at sendDispls[r] to each rank r, receiving
// recvCounts[r] at recvDispls[r] in return. The symmetric-counts contract
// (sendCounts[r] on me == recvCounts[me] on r) is the caller's to honour,
// as in MPI_Alltoallv.
func AlltoAllv[T gpu.Elem](c *Coordinator, send, recv Ptr[T], sendCounts, sendDispls, recvCounts, recvDispls []int, comm *Communicator) {
	env := c.env
	env.dispatch()
	comm.check()
	me := comm.GlobalRank()
	n := comm.GlobalSize()
	selfCopy := func() {
		c.stream.MemcpyAsync(env.p,
			recv.Add(recvDispls[me]).View(recvCounts[me]),
			send.Add(sendDispls[me]).View(sendCounts[me]), sendCounts[me])
	}
	switch env.Backend() {
	case MPIBackend:
		c.mpiStreamGuard()
		totalS := sendDispls[n-1] + sendCounts[n-1]
		totalR := recvDispls[n-1] + recvCounts[n-1]
		comm.mpic.Alltoallv(env.p, send.View(totalS), recv.View(totalR),
			sendCounts, sendDispls, recvCounts, recvDispls)
	case GpucclBackend:
		ccl := comm.cclc
		ccl.GroupStart()
		for r := 0; r < n; r++ {
			if r == me {
				continue
			}
			ccl.Send(env.p, c.stream, send.Add(sendDispls[r]).View(sendCounts[r]), r)
			ccl.Recv(env.p, c.stream, recv.Add(recvDispls[r]).View(recvCounts[r]), r)
		}
		ccl.GroupEnd(env.p, c.stream)
		selfCopy()
	default:
		pe := comm.pe
		for r := 0; r < n; r++ {
			if r == me {
				selfCopy()
				continue
			}
			// One-sided: write my chunk for r into r's recv region at the
			// displacement r reserves for me. Symmetric addressing means
			// the displacement table must agree across PEs, i.e. the
			// canonical contract recvDispls[src] indexed by source rank.
			pe.PutOnStream(env.p, c.stream, recv.Add(recvDispls[me]).symRef(sendCounts[r]),
				send.Add(sendDispls[r]).View(sendCounts[r]), sendCounts[r], comm.worldOf(r))
		}
		pe.QuietOnStream(env.p, c.stream)
		comm.team.BarrierOnStream(env.p, c.stream)
	}
}

// AlltoAll exchanges count-element chunks between every pair of ranks:
// chunk r of send goes to rank r, which stores it at chunk me.
func AlltoAll[T gpu.Elem](c *Coordinator, send, recv Ptr[T], count int, comm *Communicator) {
	env := c.env
	env.dispatch()
	comm.check()
	me := comm.GlobalRank()
	n := comm.GlobalSize()
	switch env.Backend() {
	case MPIBackend:
		c.mpiStreamGuard()
		comm.mpic.Alltoall(env.p, send.View(n*count), recv.View(n*count), count)
	case GpucclBackend:
		ccl := comm.cclc
		ccl.GroupStart()
		for r := 0; r < n; r++ {
			if r == me {
				continue
			}
			ccl.Send(env.p, c.stream, send.Add(r*count).View(count), r)
			ccl.Recv(env.p, c.stream, recv.Add(r*count).View(count), r)
		}
		ccl.GroupEnd(env.p, c.stream)
		c.stream.MemcpyAsync(env.p, recv.Add(me*count).View(count), send.Add(me*count).View(count), count)
	default:
		pe := comm.pe
		for r := 0; r < n; r++ {
			if r == me {
				c.stream.MemcpyAsync(env.p, recv.Add(me*count).View(count), send.Add(me*count).View(count), count)
				continue
			}
			pe.PutOnStream(env.p, c.stream, recv.Add(me*count).symRef(count),
				send.Add(r*count).View(count), count, comm.worldOf(r))
		}
		pe.QuietOnStream(env.p, c.stream)
		comm.team.BarrierOnStream(env.p, c.stream)
	}
}
