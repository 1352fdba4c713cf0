package trace

// Post-hoc analysis over a span log's View: per-rank time attribution, the
// critical path (longest dependency chain), and the rank-to-rank
// communication matrix. All three use only integer virtual-time arithmetic
// and never consult wall clock, so their output is byte-stable across runs
// and sweep worker counts.

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// spanClass buckets a span for attribution purposes.
type spanClass int

// Attribution classes, in ascending priority: when intervals of different
// classes overlap on one rank, the higher class claims the overlap (waiting
// on the network dominates locally overlapped compute).
const (
	classCompute spanClass = iota // kernels, stream ops, host work
	classIntra                    // intra-node transfers (incl. device-local)
	classInter                    // inter-node transfers
	numClasses
)

// classOf buckets one record: transfers by their route's track (an
// inter-node track is "inter" or "inter+failover"), everything else as
// compute.
func (s *store) classOf(r *rec) spanClass {
	if Kind(r.kind) != KindTransfer {
		return classCompute
	}
	if strings.HasPrefix(s.syms[r.track], "inter") {
		return classInter
	}
	return classIntra
}

// RankBreakdown partitions one rank's run [0, Total] by activity class.
// Compute + Intra + Inter + Blocked == Total exactly: overlaps are claimed
// by the highest-priority class and uncovered time is Blocked, so the
// components are a true partition of virtual time.
type RankBreakdown struct {
	Rank    int
	Compute sim.Duration
	Intra   sim.Duration
	Inter   sim.Duration
	Blocked sim.Duration
	Total   sim.Duration
}

// Attribute partitions [0, end] per rank. A transfer is attributed to both
// of its endpoint ranks (source occupancy and destination delivery are the
// same wait from each side); kernels and stream ops to their executing
// rank. Ranks are inferred as 0..max rank observed.
func Attribute(v *View, end sim.Time) []RankBreakdown {
	nRanks := 0
	for i := range v.Len() {
		r := v.at(i)
		nRanks = max(nRanks, int(r.rank)+1, int(r.src)+1, int(r.dst)+1)
	}
	if nRanks == 0 || end <= 0 {
		return nil
	}

	// Boundary sweep per rank: +1/-1 deltas per class at interval edges,
	// elementary segments claimed by the highest active class.
	type edge struct {
		at    sim.Time
		class spanClass
		delta int
	}
	perRank := make([][]edge, nRanks)
	addIv := func(rank int32, class spanClass, start, stop sim.Time) {
		if rank < 0 || int(rank) >= nRanks {
			return
		}
		if stop > end {
			stop = end
		}
		if start >= stop {
			return
		}
		perRank[rank] = append(perRank[rank],
			edge{at: start, class: class, delta: 1},
			edge{at: stop, class: class, delta: -1})
	}
	for i := range v.Len() {
		r := v.at(i)
		class := v.classOf(r)
		if Kind(r.kind) == KindTransfer {
			addIv(r.src, class, r.start, r.end)
			if r.dst != r.src {
				addIv(r.dst, class, r.start, r.end)
			}
			continue
		}
		addIv(r.rank, class, r.start, r.end)
	}

	out := make([]RankBreakdown, nRanks)
	for rank, edges := range perRank {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].at != edges[j].at {
				return edges[i].at < edges[j].at
			}
			return edges[i].delta > edges[j].delta // opens before closes at a shared instant
		})
		b := RankBreakdown{Rank: rank, Total: sim.Duration(end)}
		var active [numClasses]int
		var covered [numClasses]sim.Duration
		prev := sim.Time(0)
		for _, e := range edges {
			if e.at > prev {
				for c := numClasses - 1; c >= classCompute; c-- {
					if active[c] > 0 {
						covered[c] += e.at.Sub(prev)
						break
					}
				}
				prev = e.at
			}
			active[e.class] += e.delta
		}
		b.Compute = covered[classCompute]
		b.Intra = covered[classIntra]
		b.Inter = covered[classInter]
		b.Blocked = b.Total - b.Compute - b.Intra - b.Inter
		out[rank] = b
	}
	return out
}

// RenderBreakdown formats per-rank attribution as a text table.
func RenderBreakdown(rows []RankBreakdown) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %14s %14s %14s %14s %14s\n",
		"rank", "compute", "intra-node", "inter-node", "blocked", "total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %14s %14s %14s %14s %14s\n",
			r.Rank, r.Compute, r.Intra, r.Inter, r.Blocked, r.Total)
	}
	return b.String()
}

// CritPath is the longest dependency chain through a span log.
type CritPath struct {
	// Chain is the path in time order, as positions in the view it was
	// found in.
	Chain []int32
	v     *View
	// Len is the summed duration of the chain's spans (busy time on the
	// path); End is when the chain finishes.
	Len sim.Duration
	End sim.Time
	// Per-class busy time on the chain. Blocked is the idle time inside
	// the chain (gaps between consecutive chain spans plus lead-in), so
	// Compute + Intra + Inter + Blocked == End exactly.
	Compute sim.Duration
	Intra   sim.Duration
	Inter   sim.Duration
	Blocked sim.Duration
}

// CriticalPath finds the longest dependency chain over the spans. Span B is
// taken to depend on span A when A ends no later than B starts and they
// share a resource: the same track (stream / link serialization), the same
// rank (program order), or A is a transfer delivering to B's rank (message
// edge). That happens-before relation is conservative but sound for this
// simulator: every producer orders its own spans, and cross-rank ordering
// only arises through transfers.
//
// The chain maximizing summed span duration is computed by a sweep in view
// order: spans whose End precedes the current Start are committed into
// per-track and per-rank "best chain so far" tables, indexed by track id and
// rank, so each span extends the best committed predecessor it can see.
// Ties break toward the earlier position, keeping the result deterministic.
// O(n) on a producer-ordered log, O(n log n) at worst (sortNearly).
func CriticalPath(v *View) CritPath {
	n := v.Len()
	if n == 0 {
		return CritPath{}
	}

	// A table entry is the best chain value committed on its track or rank
	// and the position holding it. A predecessor must beat 0, so an entry
	// never raised above 0 reads as absent.
	type best struct {
		len sim.Duration
		pos int32
	}
	// byEnd lists the positions by (End, position); commit walks it with a
	// cursor, stopping at the first span that ends too late or has not been
	// visited yet (one that starts and ends at the current instant but sorts
	// after it). The position tie-break keeps commit order, and therefore
	// table contents under equal chain values, deterministic.
	byEnd := make([]int32, n)
	lo, hi := int32(0), int32(0)
	for i := range byEnd {
		r := v.at(i)
		byEnd[i] = int32(i)
		lo, hi = min(lo, r.rank, r.dst), max(hi, r.rank, r.dst)
	}
	sortNearly(byEnd, func(a, b int32) int {
		if x, y := v.at(int(a)).end, v.at(int(b)).end; x != y {
			return cmp.Compare(x, y)
		}
		return cmp.Compare(a, b)
	})
	chain := make([]sim.Duration, n) // chain value ending at position i
	pred := make([]int32, n)         // predecessor position, -1 at chain head
	byTrack := make([]best, len(v.syms))
	byRank := make([]best, hi-lo+1)
	raise := func(b *best, i int32) {
		if chain[i] > b.len {
			*b = best{chain[i], i}
		}
	}

	next := 0
	for i := range n {
		s := v.at(i)
		for ; next < n && int(byEnd[next]) < i && v.at(int(byEnd[next])).end <= s.start; next++ {
			j := byEnd[next]
			r := v.at(int(j))
			raise(&byTrack[r.track], j)
			raise(&byRank[r.rank-lo], j)
			if Kind(r.kind) == KindTransfer && r.dst != r.rank { // message edge: delivery to Dst
				raise(&byRank[r.dst-lo], j)
			}
		}
		p, plen := int32(-1), sim.Duration(0)
		if b := byTrack[s.track]; b.len > plen {
			p, plen = b.pos, b.len
		}
		if b := byRank[s.rank-lo]; b.len > plen {
			p, plen = b.pos, b.len
		}
		chain[i] = plen + s.dur()
		pred[i] = p
	}

	// The critical path ends at the maximal chain value; ties go to the
	// earlier position.
	tail := int32(0)
	for i := range chain {
		if chain[i] > chain[tail] {
			tail = int32(i)
		}
	}

	cp := CritPath{v: v, Len: chain[tail], End: v.at(int(tail)).end}
	// Walk the predecessors twice: once to size the chain, once to fill it
	// back to front, which leaves it in time order.
	links := 0
	for i := tail; i >= 0; i = pred[i] {
		links++
	}
	cp.Chain = make([]int32, links)
	for i := tail; i >= 0; i = pred[i] {
		links--
		cp.Chain[links] = i
		r := v.at(int(i))
		switch v.classOf(r) {
		case classInter:
			cp.Inter += r.dur()
		case classIntra:
			cp.Intra += r.dur()
		default:
			cp.Compute += r.dur()
		}
	}
	cp.Blocked = sim.Duration(cp.End) - cp.Len
	return cp
}

// Render formats the critical path: the class breakdown and the chain, one
// span per line with the idle gap since its predecessor. Long chains elide
// the middle (the head and tail carry the structure; the elision count keeps
// the output size bounded and deterministic).
func (cp CritPath) Render() string {
	const keep = 12 // spans shown at each end of a long chain
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: %s busy over %s (compute %s, intra %s, inter %s, blocked %s), %d spans\n",
		cp.Len, sim.Duration(cp.End), cp.Compute, cp.Intra, cp.Inter, cp.Blocked, len(cp.Chain))
	prev := sim.Time(0)
	for i, pos := range cp.Chain {
		s := cp.v.at(int(pos))
		if len(cp.Chain) > 2*keep+1 && i == keep {
			fmt.Fprintf(&b, "  ... %d spans elided ...\n", len(cp.Chain)-2*keep)
		}
		if len(cp.Chain) > 2*keep+1 && i >= keep && i < len(cp.Chain)-keep {
			prev = s.end
			continue
		}
		gap := max(s.start.Sub(prev), 0)
		fmt.Fprintf(&b, "  %12s +%-10s wait %-10s %-10s %-20s %s\n",
			s.start, s.dur(), gap, Kind(s.kind), cp.v.syms[s.track], cp.v.syms[s.label])
		prev = s.end
	}
	return b.String()
}

// CommMatrix is the rank-to-rank traffic matrix accumulated from transfer
// spans: Bytes[src][dst] payload bytes and Count[src][dst] messages.
type CommMatrix struct {
	N     int
	Bytes [][]int64
	Count [][]int64
}

// Traffic is the communication matrix without the matrix: the rank count
// BuildCommMatrix infers (0..max transfer endpoint observed) and the
// payload bytes and messages it would hold, in one pass and no allocation.
func (v *View) Traffic() (ranks int, bytes, msgs int64) {
	for j := range int32(v.Len()) {
		r := v.rec(j)
		if Kind(r.kind) != KindTransfer {
			continue
		}
		ranks = max(ranks, int(r.src)+1, int(r.dst)+1)
		if r.src >= 0 && r.dst >= 0 {
			bytes += r.bytes
			msgs++
		}
	}
	return ranks, bytes, msgs
}

// BuildCommMatrix accumulates the communication matrix over the spans.
// Ranks are inferred as 0..max endpoint observed.
func BuildCommMatrix(v *View) CommMatrix {
	n, _, _ := v.Traffic()
	m := CommMatrix{N: n}
	if n == 0 {
		return m
	}
	m.Bytes = make([][]int64, n)
	m.Count = make([][]int64, n)
	for i := range m.Bytes {
		m.Bytes[i] = make([]int64, n)
		m.Count[i] = make([]int64, n)
	}
	for j := range int32(v.Len()) {
		r := v.rec(j)
		if Kind(r.kind) != KindTransfer || r.src < 0 || r.dst < 0 {
			continue
		}
		m.Bytes[r.src][r.dst] += r.bytes
		m.Count[r.src][r.dst]++
	}
	return m
}

// Render formats the matrix (bytes, with message counts in parentheses);
// src is the row, dst the column.
func (m CommMatrix) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "src\\dst")
	for d := 0; d < m.N; d++ {
		fmt.Fprintf(&b, "%16d", d)
	}
	b.WriteString("\n")
	for s := 0; s < m.N; s++ {
		fmt.Fprintf(&b, "%-8d", s)
		for d := 0; d < m.N; d++ {
			if m.Count[s][d] == 0 {
				fmt.Fprintf(&b, "%16s", ".")
				continue
			}
			fmt.Fprintf(&b, "%16s", fmt.Sprintf("%d(%d)", m.Bytes[s][d], m.Count[s][d]))
		}
		b.WriteString("\n")
	}
	return b.String()
}
