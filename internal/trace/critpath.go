package trace

// Post-hoc analysis over span logs: per-rank time attribution, the critical
// path (longest dependency chain), and the rank-to-rank communication
// matrix. All three work on the deterministic sorted span order, use only
// integer virtual-time arithmetic, and never consult wall clock, so their
// output is byte-stable across runs and sweep worker counts.

import (
	"cmp"
	"fmt"
	"slices"
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

func (c spanClass) String() string {
	switch c {
	case classCompute:
		return "compute"
	case classIntra:
		return "intra-node"
	case classInter:
		return "inter-node"
	default:
		return fmt.Sprintf("spanClass(%d)", int(c))
	}
}

// classOf buckets one span: transfers by their route's track (an inter-node
// track is "inter" or "inter+failover"), everything else as compute.
func classOf(s Span) spanClass {
	if s.Kind != KindTransfer {
		return classCompute
	}
	if strings.HasPrefix(s.Track, "inter") {
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
func Attribute(spans []Span, end sim.Time) []RankBreakdown {
	nRanks := 0
	for _, s := range spans {
		for _, r := range []int{s.Rank, s.Src, s.Dst} {
			if r+1 > nRanks {
				nRanks = r + 1
			}
		}
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
	addIv := func(rank int, class spanClass, start, stop sim.Time) {
		if rank < 0 || rank >= nRanks {
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
	for _, s := range spans {
		class := classOf(s)
		if s.Kind == KindTransfer {
			addIv(s.Src, class, s.Start, s.End)
			if s.Dst != s.Src {
				addIv(s.Dst, class, s.Start, s.End)
			}
			continue
		}
		addIv(s.Rank, class, s.Start, s.End)
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
	// Chain is the path in time order.
	Chain []Span
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
// The chain maximizing summed span duration is computed by a sweep in start
// order: spans whose End precedes the current Start are committed into
// per-track and per-rank "best chain so far" tables, so each span extends
// the best committed predecessor it can see. Ties break toward the earlier
// span in sorted order, keeping the result deterministic. O(n log n).
func CriticalPath(spans []Span) CritPath {
	srt := sortedSpans(spans)
	n := len(srt)
	if n == 0 {
		return CritPath{}
	}

	type best struct {
		len sim.Duration
		idx int // span index holding that chain value
	}
	chain := make([]sim.Duration, n) // chain value ending at span i
	pred := make([]int, n)           // predecessor index, -1 at chain head
	byTrack := map[string]best{}
	byRank := map[int]best{}

	// byEnd lists the span indices by (End, index); commit walks it with a
	// cursor, stopping at the first span that ends too late or has not been
	// visited yet (one that starts and ends at the current instant but sorts
	// after it). The index tie-break keeps commit order, and therefore table
	// contents under equal chain values, deterministic.
	byEnd := make([]int, n)
	for i := range byEnd {
		byEnd[i] = i
	}
	slices.SortFunc(byEnd, func(a, b int) int {
		return cmp.Or(cmp.Compare(srt[a].End, srt[b].End), cmp.Compare(a, b))
	})
	next := 0
	commit := func(visited int, upTo sim.Time) {
		for ; next < n && byEnd[next] < visited && srt[byEnd[next]].End <= upTo; next++ {
			i := byEnd[next]
			s := srt[i]
			if b, ok := byTrack[s.Track]; !ok || chain[i] > b.len {
				byTrack[s.Track] = best{len: chain[i], idx: i}
			}
			if b, ok := byRank[s.Rank]; !ok || chain[i] > b.len {
				byRank[s.Rank] = best{len: chain[i], idx: i}
			}
			if s.Kind == KindTransfer && s.Dst != s.Rank { // message edge: delivery to Dst
				if b, ok := byRank[s.Dst]; !ok || chain[i] > b.len {
					byRank[s.Dst] = best{len: chain[i], idx: i}
				}
			}
		}
	}

	for i := 0; i < n; i++ {
		s := srt[i]
		commit(i, s.Start)
		p, plen := -1, sim.Duration(0)
		if b, ok := byTrack[s.Track]; ok && b.len > plen {
			p, plen = b.idx, b.len
		}
		if b, ok := byRank[s.Rank]; ok && b.len > plen {
			p, plen = b.idx, b.len
		}
		chain[i] = plen + s.dur()
		pred[i] = p
	}

	// The critical path ends at the maximal chain value; ties go to the
	// earlier sorted span.
	tail := 0
	for i := 1; i < n; i++ {
		if chain[i] > chain[tail] {
			tail = i
		}
	}

	cp := CritPath{Len: chain[tail], End: srt[tail].End}
	// Walk the predecessors twice: once to size the chain, once to fill it
	// back to front, which leaves it in time order.
	links := 0
	for i := tail; i >= 0; i = pred[i] {
		links++
	}
	cp.Chain = make([]Span, links)
	for i := tail; i >= 0; i = pred[i] {
		links--
		cp.Chain[links] = srt[i]
	}
	for _, s := range cp.Chain {
		switch classOf(s) {
		case classInter:
			cp.Inter += s.dur()
		case classIntra:
			cp.Intra += s.dur()
		default:
			cp.Compute += s.dur()
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
	for i, s := range cp.Chain {
		if len(cp.Chain) > 2*keep+1 && i == keep {
			fmt.Fprintf(&b, "  ... %d spans elided ...\n", len(cp.Chain)-2*keep)
		}
		if len(cp.Chain) > 2*keep+1 && i >= keep && i < len(cp.Chain)-keep {
			prev = s.End
			continue
		}
		gap := s.Start.Sub(prev)
		if gap < 0 {
			gap = 0
		}
		fmt.Fprintf(&b, "  %12s +%-10s wait %-10s %-10s %-20s %s\n",
			s.Start, s.dur(), gap, s.Kind, s.Track, s.Label)
		prev = s.End
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

// BuildCommMatrix accumulates the communication matrix over the spans.
// Ranks are inferred as 0..max endpoint observed.
func BuildCommMatrix(spans []Span) CommMatrix {
	n := 0
	for _, s := range spans {
		if s.Kind != KindTransfer {
			continue
		}
		if s.Src+1 > n {
			n = s.Src + 1
		}
		if s.Dst+1 > n {
			n = s.Dst + 1
		}
	}
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
	for _, s := range spans {
		if s.Kind != KindTransfer || s.Src < 0 || s.Dst < 0 {
			continue
		}
		m.Bytes[s.Src][s.Dst] += s.Bytes
		m.Count[s.Src][s.Dst]++
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
