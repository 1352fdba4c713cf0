package mpi

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/lockstep"
	"repro/internal/sim"
)

// Collective algorithms built on the point-to-point layer, following the
// classic MPICH selection: binomial trees for short broadcast/reduce,
// recursive doubling for short allreduce, ring algorithms for long vectors,
// dissemination for barrier, and pairwise exchange for all-to-all.
//
// Every rank of a communicator must call the same collectives in the same
// order, each from its own simulated process.

// collRoundBits is the width of the per-collective round field in reserved
// tags; collWindow bounds how much of the collective sequence is folded in.
// The sequence is reduced modulo collWindow so tags never overflow (the old
// unbounded shift wrapped after 2^55 collectives on 64-bit int, far sooner
// on 32-bit): the largest reserved tag is
// maxUserTag + (collWindow-1)<<collRoundBits + collRounds-1 < 2^31, which
// fits a 32-bit int. Reusing a tag 2^20 collectives later is safe because
// per-pair sequence admission keeps matching FIFO and far fewer collectives
// are ever concurrently outstanding.
const (
	collRoundBits = 10
	collRounds    = 1 << collRoundBits
	collWindow    = 1 << 20
)

// collTag returns a reserved tag for one round of one collective call.
func (c *Comm) collTag(round int) int {
	if round < 0 || round >= collRounds {
		panic(fmt.Sprintf("mpi: collective round %d outside [0, %d)", round, collRounds))
	}
	return maxUserTag + int(c.coll%collWindow)<<collRoundBits + round
}

// stagingPenalty charges the host-bounce-buffer cost of the MPI
// implementation's vector collectives on device buffers (down and up once
// each at the staging bandwidth).
func (c *Comm) stagingPenalty(p *sim.Proc, vectorBytes int64) {
	bw := c.profile().CollStagingBW
	if bw <= 0 || vectorBytes <= 0 {
		return
	}
	p.Advance(sim.Duration(2 * float64(vectorBytes) / bw * float64(sim.Second)))
}

// enterColl advances the per-handle collective sequence and returns the
// sequence valid for this call.
func (c *Comm) enterColl() {
	c.coll++
}

// Barrier blocks until every rank of the communicator has entered it
// (dissemination algorithm: ceil(log2 n) zero-byte rounds).
func (c *Comm) Barrier(p *sim.Proc) {
	defer timeColl(p, c.ep.world.mColl.barrier)()
	c.enterColl()
	n := c.Size()
	if n == 1 {
		return
	}
	me := c.rank
	c.exchangeLoop(p, func(round int) bool {
		dist := 1 << round
		if dist >= n {
			return false
		}
		c.x.sendrecv(gpu.View{}, (me+dist)%n, c.collTag(round), gpu.View{}, (me-dist+n)%n, c.collTag(round))
		return true
	})
}

// Bcast broadcasts root's buf to every rank (binomial tree).
func (c *Comm) Bcast(p *sim.Proc, buf gpu.View, root int) {
	defer timeColl(p, c.ep.world.mColl.bcast)()
	c.enterColl()
	n := c.Size()
	if n == 1 {
		return
	}
	// Re-index so the root is virtual rank 0.
	vrank := (c.rank - root + n) % n
	mask := 1
	for mask < n {
		mask <<= 1
	}
	// Receive once from the parent, then forward down the tree.
	recvMask := 1
	for vrank != 0 && vrank&recvMask == 0 {
		recvMask <<= 1
	}
	if vrank != 0 {
		parent := ((vrank &^ recvMask) + root) % n
		c.Recv(p, buf, parent, c.collTag(0))
	}
	childMask := recvMask >> 1
	if vrank == 0 {
		childMask = mask >> 1
	}
	for ; childMask > 0; childMask >>= 1 {
		child := vrank | childMask
		if child < n && child != vrank {
			c.Send(p, buf, (child+root)%n, c.collTag(0))
		}
	}
}

// Reduce combines sendBuf from all ranks into recvBuf on root (binomial
// tree). recvBuf may be the zero view on non-root ranks. sendBuf and
// recvBuf must not alias.
func (c *Comm) Reduce(p *sim.Proc, sendBuf, recvBuf gpu.View, op gpu.ReduceOp, root int) {
	defer timeColl(p, c.ep.world.mColl.reduce)()
	c.enterColl()
	n := c.Size()
	count := sendBuf.Len()
	// The accumulator is a genuine snapshot: interior ranks have no result
	// buffer to accumulate in, and sendBuf must stay untouched.
	acc := sendBuf.Clone()
	if n > 1 {
		vrank := (c.rank - root + n) % n
		mask := 1
		for mask < n {
			if vrank&mask != 0 {
				parent := ((vrank &^ mask) + root) % n
				c.Send(p, acc, parent, c.collTag(bitsOf(mask)))
				break
			}
			peer := vrank | mask
			if peer < n {
				c.recvReduce(p, acc, acc, (peer+root)%n, c.collTag(bitsOf(mask)), op)
			}
			mask <<= 1
		}
	}
	if c.rank == root {
		gpu.Copy(recvBuf, acc, count)
	}
	acc.Release()
}

func bitsOf(mask int) int {
	b := 0
	for mask > 1 {
		mask >>= 1
		b++
	}
	return b
}

// allreduceRingMin is the vector byte size above which Allreduce switches
// from recursive doubling to the ring algorithm.
const allreduceRingMin = 64 << 10

// allreduceHierMin is the vector byte size above which Allreduce prefers
// the hierarchical (SMP-aware) algorithm on multi-node communicators with a
// regular node-block layout — the MPICH-style crossover: below it the
// latency-bound recursive doubling wins, above it locality does.
const allreduceHierMin = 32 << 10

// AllreduceAlg forces one allreduce implementation (AllreduceAlg method).
type AllreduceAlg int

const (
	// AlgAuto applies the size/layout-based selection of Allreduce.
	AlgAuto AllreduceAlg = iota
	// AlgRecursiveDoubling forces recursive doubling (any count, any n).
	AlgRecursiveDoubling
	// AlgRing forces ring reduce-scatter + allgather (needs count >= n).
	AlgRing
	// AlgHierarchical forces the SMP-aware algorithm: intra-node ring
	// reduce-scatter, inter-node binomial-tree allreduce per chunk,
	// intra-node ring allgather. Needs a regular node-block layout
	// (hierLayout) and count >= ranks-per-node.
	AlgHierarchical
)

func (a AllreduceAlg) String() string {
	switch a {
	case AlgAuto:
		return "auto"
	case AlgRecursiveDoubling:
		return "rd"
	case AlgRing:
		return "ring"
	case AlgHierarchical:
		return "hierarchical"
	default:
		return fmt.Sprintf("AllreduceAlg(%d)", int(a))
	}
}

// Allreduce combines sendBuf from all ranks elementwise into recvBuf on all
// ranks. In-place operation is allowed (sendBuf == recvBuf).
func (c *Comm) Allreduce(p *sim.Proc, sendBuf, recvBuf gpu.View, op gpu.ReduceOp) {
	c.AllreduceAlg(p, sendBuf, recvBuf, op, AlgAuto)
}

// AllreduceAlg is Allreduce with an explicit algorithm selection; AlgAuto
// reproduces Allreduce. Forcing an algorithm whose preconditions the call
// does not meet (ring without count >= n, hierarchical without a regular
// node layout) panics: the caller asked for something that cannot run.
func (c *Comm) AllreduceAlg(p *sim.Proc, sendBuf, recvBuf gpu.View, op gpu.ReduceOp, alg AllreduceAlg) {
	defer timeColl(p, c.ep.world.mColl.allreduce)()
	c.enterColl()
	n := c.Size()
	count := sendBuf.Len()
	if n == 1 {
		gpu.Copy(recvBuf, sendBuf, count)
		return
	}
	var hl hierLayout
	switch alg {
	case AlgRecursiveDoubling:
	case AlgRing:
		if count < n {
			panic(fmt.Sprintf("mpi: ring allreduce needs count >= size (%d < %d)", count, n))
		}
	case AlgHierarchical:
		hl = c.hierLayout()
		if !hl.ok {
			panic("mpi: hierarchical allreduce requires a regular node-block layout (equal-size contiguous node blocks)")
		}
		if count < hl.local {
			panic(fmt.Sprintf("mpi: hierarchical allreduce needs count >= ranks per node (%d < %d)", count, hl.local))
		}
	default:
		// AlgAuto, MPICH-style: the SMP-aware hierarchical algorithm for large
		// vectors on multi-node communicators whose ranks pack regularly
		// onto nodes (it needs real node locality to exploit: one rank per
		// node degenerates to a plain tree, which the ring beats at these
		// sizes), then ring for large vectors, recursive doubling for the
		// rest.
		alg = AlgRecursiveDoubling
		if sendBuf.Bytes() >= allreduceRingMin && count >= n {
			alg = AlgRing
		}
		if sendBuf.Bytes() >= allreduceHierMin {
			if hl = c.hierLayout(); hl.ok && hl.local > 1 && count >= hl.local {
				alg = AlgHierarchical
			}
		}
	}
	// The chunked algorithms read this rank's contribution from src and
	// build the result in recvBuf, so an out-of-place call needs no seed
	// copy: every chunk's first touch combines src with the incoming
	// partial. Only a disjoint sendBuf can be read while recvBuf fills;
	// anything else is seeded by copy and runs in place, like the
	// whole-vector exchange of recursive doubling.
	src := sendBuf
	if alg == AlgRecursiveDoubling || sendBuf.SameBuffer(recvBuf) {
		gpu.Copy(recvBuf, sendBuf, count)
		src = recvBuf
	}
	switch alg {
	case AlgRing:
		c.allreduceRing(p, src, recvBuf, op)
	case AlgHierarchical:
		c.allreduceHierarchical(p, src, recvBuf, op, hl)
	default:
		c.allreduceRecursiveDoubling(p, recvBuf, op)
	}
}

// allreduceRecursiveDoubling handles any rank count by folding the ranks
// beyond the largest power of two into their lower partners first. Partners
// exchange whole vectors, so each round lands in scratch and is reduced from
// there: reducing on receive would let a peer read a half-updated buf.
func (c *Comm) allreduceRecursiveDoubling(p *sim.Proc, buf gpu.View, op gpu.ReduceOp) {
	n := c.Size()
	count := buf.Len()
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	me := c.rank

	// Fold phase: ranks >= pof2 send to (rank - rem) and sit out.
	newRank := -1
	switch {
	case me < rem*2 && me%2 != 0: // odd ranks in the doubled region send
		c.Send(p, buf, me-1, c.collTag(200))
	case me < rem*2: // even ranks in the doubled region absorb
		c.recvReduce(p, buf, buf, me+1, c.collTag(200), op)
		newRank = me / 2
	default:
		newRank = me - rem
	}

	if newRank >= 0 {
		tmp := buf.Scratch()
		c.exchangeLoop(p, func(round int) bool {
			if round > 0 {
				gpu.Reduce(buf, tmp, count, op) // what the round just completed brought
			}
			mask := 1 << round
			if mask >= pof2 {
				return false
			}
			peer := newRank ^ mask
			if peer < rem {
				peer *= 2
			} else {
				peer += rem
			}
			c.x.sendrecv(buf, peer, c.collTag(round), tmp, peer, c.collTag(round))
			return true
		})
		tmp.Release()
	}

	// Unfold: results back to the odd ranks that sat out.
	if me < rem*2 {
		if me%2 == 0 {
			c.Send(p, buf, me+1, c.collTag(201))
		} else {
			c.Recv(p, buf, me-1, c.collTag(201))
		}
	}
}

// ringChunks splits count elements into k near-equal contiguous chunks and
// returns the selector of chunk i (taken modulo k) of any count-element view.
func ringChunks(count, k int) func(v gpu.View, i int) gpu.View {
	// Chunk i is [i*count/k, (i+1)*count/k), computed on the spot: a table of
	// starts per rank and call would be 8 KiB at 1024 ranks, and across 1024
	// ranks a cache miss per lookup.
	return func(v gpu.View, i int) gpu.View {
		if i %= k; i < 0 {
			i += k
		}
		start := i * count / k
		return v.Slice(start, (i+1)*count/k-start)
	}
}

// allreduceRing implements reduce-scatter + allgather over a ring; it needs
// count >= n. This rank's contribution is read from src and the result built
// in buf (src is buf itself for an in-place call).
func (c *Comm) allreduceRing(p *sim.Proc, src, buf gpu.View, op gpu.ReduceOp) {
	n := c.Size()
	me := c.rank
	right := (me + 1) % n
	left := (me - 1 + n) % n
	chunk := ringChunks(buf.Len(), n)

	// One tag per phase, not per step: each neighbour pair exchanges
	// exactly one message per step and per-pair sequence admission keeps
	// matching FIFO, so step-distinct tags add nothing — and per-step tags
	// (the old scheme) overflowed the collRounds=1024 round space past 924
	// ranks.
	//
	// Reduce-scatter: after n-1 steps rank r holds the full reduction of
	// chunk (r+1) mod n. Every step reduces on receive, and receives a chunk
	// buf has not held before, so the incoming partial is combined with src's
	// chunk; the first step forwards src's own chunk, later steps the
	// partial the previous one left in buf.
	// Allgather: circulate the finished chunks. It overwrites every chunk
	// but the one this rank finished — including chunk me, which the
	// reduce-scatter never wrote. Both phases are one loop of 2(n-1) rounds.
	out := chunk(src, me)
	c.exchangeLoop(p, func(step int) bool {
		switch {
		case step < n-1:
			in := me - step - 1
			c.x.sendrecvReduce(out, right, c.collTag(0),
				chunk(buf, in), chunk(src, in), left, c.collTag(0), op)
			out = chunk(buf, in)
		case step < 2*(n-1):
			step -= n - 1
			c.x.sendrecv(chunk(buf, me+1-step), right, c.collTag(1),
				chunk(buf, me-step), left, c.collTag(1))
		default:
			return false
		}
		return true
	})
}

// hierMaxLocal caps the detected ranks-per-node block size so the intra-node
// ring tag ranges (300+step, 700+step) stay inside the reserved round space.
const hierMaxLocal = 128

// hierLayout describes a communicator whose ranks form equal-size contiguous
// single-node blocks: ranks [b*local, (b+1)*local) all live on one node, for
// nodes >= 2 blocks. This is the layout packed GPU assignment produces, and
// the precondition of the hierarchical allreduce.
type hierLayout struct {
	ok    bool
	local int // ranks per node block (L)
	nodes int // number of node blocks (N)
}

// hierLayout detects (and caches per handle) the node-block structure of the
// communicator. Detection is O(size) once; the group never changes after
// construction, so the cache never invalidates.
func (c *Comm) hierLayout() hierLayout {
	if c.hier != nil {
		return *c.hier
	}
	hl := c.computeHierLayout()
	c.hier = &hl
	return hl
}

func (c *Comm) computeHierLayout() hierLayout {
	n := c.Size()
	fab := c.ep.world.cluster.Fabric
	node := func(r int) int { return fab.Node(c.group[r]) }
	local := 1
	for local < n && node(local) == node(0) {
		local++
	}
	if local > hierMaxLocal || n%local != 0 || n/local < 2 {
		return hierLayout{}
	}
	for b := 1; b < n/local; b++ {
		nb := node(b * local)
		for i := 1; i < local; i++ {
			if node(b*local+i) != nb {
				return hierLayout{}
			}
		}
	}
	return hierLayout{ok: true, local: local, nodes: n / local}
}

// allreduceHierarchical is the SMP-aware allreduce for hierLayout
// communicators: an intra-node ring reduce-scatter concentrates each node's
// reduction into per-rank chunks, an inter-node binomial tree (reduce to
// block 0, then broadcast) finishes each chunk across nodes — every local
// rank drives its own chunk's tree concurrently, so the expensive inter-node
// wire carries count/L elements per rank instead of count — and an
// intra-node ring allgather redistributes the result. Wire traffic per rank:
// 2*(L-1)/L vectors intra-node + 2*log2(N)/L vectors inter-node, versus the
// flat ring's 2*(n-1)/n vectors all crossing node boundaries.
//
// Tag layout (all < collRounds=1024): reduce-scatter 300+step (L <= 128),
// tree reduce 600+level, tree broadcast 680, allgather 700+step.
func (c *Comm) allreduceHierarchical(p *sim.Proc, src, buf gpu.View, op gpu.ReduceOp, hl hierLayout) {
	L, N := hl.local, hl.nodes
	l := c.rank % L // local index within the node block
	b := c.rank / L // node block index
	base := b * L   // comm rank of the block's first member
	right := base + (l+1)%L
	left := base + (l-1+L)%L
	chunk := ringChunks(buf.Len(), L)

	// Phase 1 — intra-node ring reduce-scatter: after L-1 steps local rank l
	// holds the node-local reduction of chunk (l+1) mod L. As in
	// allreduceRing, this rank's contribution is read from src (buf itself
	// for an in-place call) and every receive is a reducing first touch of
	// its chunk of buf.
	out := chunk(src, l)
	c.exchangeLoop(p, func(step int) bool {
		if step == L-1 {
			return false
		}
		in := l - step - 1
		c.x.sendrecvReduce(out, right, c.collTag(300+step),
			chunk(buf, in), chunk(src, in), left, c.collTag(300+step), op)
		out = chunk(buf, in)
		return true
	})

	// Phase 2 — inter-node binomial tree per chunk, among the N co-local
	// peers {b'*L + l}: reduce toward block 0, then broadcast back down.
	// With one rank per node phase 1 never ran, and the whole vector still
	// has to be seeded from src.
	cv := chunk(buf, l+1)
	if L == 1 {
		gpu.Copy(cv, src, cv.Len())
	}
	mask := 1
	for mask < N {
		if b&mask != 0 {
			parent := (b&^mask)*L + l
			c.Send(p, cv, parent, c.collTag(600+bitsOf(mask)))
			break
		}
		peer := b | mask
		if peer < N {
			c.recvReduce(p, cv, cv, peer*L+l, c.collTag(600+bitsOf(mask)), op)
		}
		mask <<= 1
	}
	top := 1
	for top < N {
		top <<= 1
	}
	recvMask := 1
	for b != 0 && b&recvMask == 0 {
		recvMask <<= 1
	}
	if b != 0 {
		c.Recv(p, cv, (b&^recvMask)*L+l, c.collTag(680))
	}
	childMask := recvMask >> 1
	if b == 0 {
		childMask = top >> 1
	}
	for ; childMask > 0; childMask >>= 1 {
		child := b | childMask
		if child < N && child != b {
			c.Send(p, cv, child*L+l, c.collTag(680))
		}
	}

	// Phase 3 — intra-node ring allgather: circulate the finished chunks
	// (rank l starts owning chunk (l+1) mod L, mirroring allreduceRing).
	c.exchangeLoop(p, func(step int) bool {
		if step == L-1 {
			return false
		}
		c.x.sendrecv(chunk(buf, l+1-step), right, c.collTag(700+step),
			chunk(buf, l-step), left, c.collTag(700+step))
		return true
	})
}

// Gatherv collects variable-size contributions into recvBuf on root at the
// given displacements (linear algorithm, as used for moderate sizes). Like
// Allgatherv it pays the device-buffer staging penalty at the root.
func (c *Comm) Gatherv(p *sim.Proc, sendBuf, recvBuf gpu.View, counts, displs []int, root int) {
	defer timeColl(p, c.ep.world.mColl.gather)()
	c.enterColl()
	if c.rank == root {
		c.stagingPenalty(p, recvBuf.Bytes())
	}
	n := c.Size()
	if c.rank == root {
		reqs := make([]*Request, 0, n-1)
		for r := 0; r < n; r++ {
			if r == root {
				gpu.Copy(recvBuf.Slice(displs[r], counts[r]), sendBuf, counts[r])
				continue
			}
			reqs = append(reqs, c.Irecv(p, recvBuf.Slice(displs[r], counts[r]), r, c.collTag(0)))
		}
		WaitAll(p, reqs...)
		return
	}
	c.Send(p, sendBuf, root, c.collTag(0))
}

// Scatterv distributes variable-size chunks from root.
func (c *Comm) Scatterv(p *sim.Proc, sendBuf, recvBuf gpu.View, counts, displs []int, root int) {
	defer timeColl(p, c.ep.world.mColl.scatter)()
	c.enterColl()
	n := c.Size()
	if c.rank == root {
		reqs := make([]*Request, 0, n-1)
		for r := 0; r < n; r++ {
			if r == root {
				gpu.Copy(recvBuf, sendBuf.Slice(displs[r], counts[r]), counts[r])
				continue
			}
			reqs = append(reqs, c.Isend(p, sendBuf.Slice(displs[r], counts[r]), r, c.collTag(0)))
		}
		WaitAll(p, reqs...)
		return
	}
	c.Recv(p, recvBuf, root, c.collTag(0))
}

// allgather concatenates equal-size contributions on every rank.
func (c *Comm) allgather(p *sim.Proc, sendBuf, recvBuf gpu.View) {
	counts := make([]int, c.Size())
	for i := range counts {
		counts[i] = sendBuf.Len()
	}
	c.Allgatherv(p, sendBuf, recvBuf, counts, prefixSums(counts))
}

// Allgatherv concatenates variable-size contributions on every rank (ring
// algorithm: n-1 neighbour exchanges).
//
// Vector collectives on device buffers additionally pay the host-staging
// cost of the MPI implementation (LibProfile.CollStagingBW): the full
// result vector is bounced through pinned host memory. This reproduces the
// pathology the paper isolates in §VI-D, where the Allgatherv dominated the
// MPI CG runtime on both test systems.
func (c *Comm) Allgatherv(p *sim.Proc, sendBuf, recvBuf gpu.View, counts, displs []int) {
	defer timeColl(p, c.ep.world.mColl.allgather)()
	c.enterColl()
	c.stagingPenalty(p, recvBuf.Bytes())
	n := c.Size()
	me := c.rank
	gpu.Copy(recvBuf.Slice(displs[me], counts[me]), sendBuf, counts[me])
	if n == 1 {
		return
	}
	right := (me + 1) % n
	left := (me - 1 + n) % n
	// One tag for the whole ring: per-pair FIFO admission orders the steps
	// (per-step tags overflowed the round space past 1024 ranks).
	c.exchangeLoop(p, func(step int) bool {
		if step == n-1 {
			return false
		}
		sendIdx := (me - step + n) % n
		recvIdx := (me - step - 1 + n) % n
		c.x.sendrecv(
			recvBuf.Slice(displs[sendIdx], counts[sendIdx]), right, c.collTag(0),
			recvBuf.Slice(displs[recvIdx], counts[recvIdx]), left, c.collTag(0))
		return true
	})
}

// Alltoall exchanges equal-size chunks between every rank pair (pairwise
// exchange, n-1 rounds).
func (c *Comm) Alltoall(p *sim.Proc, sendBuf, recvBuf gpu.View, count int) {
	defer timeColl(p, c.ep.world.mColl.alltoall)()
	c.enterColl()
	n := c.Size()
	me := c.rank
	gpu.Copy(recvBuf.Slice(me*count, count), sendBuf.Slice(me*count, count), count)
	// One tag for every round: each ordered rank pair exchanges exactly one
	// message per Alltoall, so round-distinct tags added nothing and
	// overflowed the round space past 1024 ranks.
	c.exchangeLoop(p, func(i int) bool {
		round := i + 1
		if round == n {
			return false
		}
		dst := (me + round) % n
		src := (me - round + n) % n
		c.x.sendrecv(
			sendBuf.Slice(dst*count, count), dst, c.collTag(0),
			recvBuf.Slice(src*count, count), src, c.collTag(0))
		return true
	})
}

// Alltoallv exchanges variable-size chunks between every rank pair
// (pairwise exchange). Like the other vector collectives it pays the
// device-buffer staging penalty.
func (c *Comm) Alltoallv(p *sim.Proc, sendBuf, recvBuf gpu.View, sendCounts, sendDispls, recvCounts, recvDispls []int) {
	defer timeColl(p, c.ep.world.mColl.alltoall)()
	c.enterColl()
	c.stagingPenalty(p, recvBuf.Bytes())
	n := c.Size()
	me := c.rank
	gpu.Copy(recvBuf.Slice(recvDispls[me], recvCounts[me]),
		sendBuf.Slice(sendDispls[me], sendCounts[me]), sendCounts[me])
	c.exchangeLoop(p, func(i int) bool {
		round := i + 1
		if round == n {
			return false
		}
		dst := (me + round) % n
		src := (me - round + n) % n
		c.x.sendrecv(
			sendBuf.Slice(sendDispls[dst], sendCounts[dst]), dst, c.collTag(0),
			recvBuf.Slice(recvDispls[src], recvCounts[src]), src, c.collTag(0))
		return true
	})
}

func prefixSums(counts []int) []int {
	d := make([]int, len(counts))
	sum := 0
	for i, c := range counts {
		d[i] = sum
		sum += c
	}
	return d
}

// Split partitions the communicator by color, ordering each new group by
// (key, old rank), like MPI_Comm_split. Every member must call it. A
// negative color returns nil (the rank joins no new communicator).
//
// Implementation note: ranks agree on the new groups via an Allgather of
// (color, key); the new context id is derived deterministically from the
// parent context and the per-handle collective sequence, which is identical
// on all ranks.
func (c *Comm) Split(p *sim.Proc, color, key int) *Comm {
	n := c.Size()
	// Exchange the (color, key) pairs through int64 buffers.
	send := gpu.AllocBuffer[int64](c.ep.dev, 2)
	send.Data()[0], send.Data()[1] = int64(color), int64(key)
	recv := gpu.AllocBuffer[int64](c.ep.dev, 2*n)
	c.allgather(p, send.Whole(), recv.Whole())
	votes := make([]lockstep.Vote, n)
	for r := range votes {
		votes[r] = lockstep.Vote{Colour: int(recv.Data()[2*r]), Key: int(recv.Data()[2*r+1])}
	}
	newCtx := c.ctx*4096 + int(c.coll) + 1
	if color < 0 {
		return nil
	}
	child := c.asGroup().Partition(votes, color)
	return newComm(c.ep, newCtx, child.Members, child.Rank)
}

// asGroup views the communicator as the group arithmetic's input.
func (c *Comm) asGroup() *lockstep.Group {
	return &lockstep.Group{Members: c.group, Size: len(c.group), Rank: c.rank}
}
