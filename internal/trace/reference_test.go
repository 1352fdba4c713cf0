package trace

// The reference analyses: the span-slice implementation the record/view log
// replaced, kept verbatim in behaviour (string comparisons, map-keyed best
// tables, a stable sort of whole spans) as the oracle FuzzSpanAnalysis holds
// the package to.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/sim"
)

func refDur(s Span) sim.Duration { return s.End.Sub(s.Start) }

func refBandwidth(s Span) float64 {
	d := refDur(s)
	if s.Bytes <= 0 || d <= 0 {
		return 0
	}
	return float64(s.Bytes) / d.Seconds()
}

// refCompare is the deterministic span order: by start, then end, then
// track, kind, label, and endpoints.
func refCompare(s, o Span) int {
	switch {
	case s.Start != o.Start:
		return cmp.Compare(s.Start, o.Start)
	case s.End != o.End:
		return cmp.Compare(s.End, o.End)
	case s.Track != o.Track:
		return strings.Compare(s.Track, o.Track)
	case s.Kind != o.Kind:
		return cmp.Compare(s.Kind, o.Kind)
	case s.Label != o.Label:
		return strings.Compare(s.Label, o.Label)
	}
	return cmp.Or(cmp.Compare(s.Src, o.Src), cmp.Compare(s.Dst, o.Dst))
}

// refSorted returns a stably sorted copy, so fully identical spans keep their
// insertion order.
func refSorted(spans []Span) []Span {
	srt := slices.Clone(spans)
	slices.SortStableFunc(srt, refCompare)
	return srt
}

func refClassOf(s Span) spanClass {
	if s.Kind != KindTransfer {
		return classCompute
	}
	if strings.HasPrefix(s.Track, "inter") {
		return classInter
	}
	return classIntra
}

func refAttribute(spans []Span, end sim.Time) []RankBreakdown {
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
		class := refClassOf(s)
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
			return edges[i].delta > edges[j].delta
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

// refCritPath is CritPath with its chain as spans.
type refCritPath struct {
	Chain                          []Span
	Len                            sim.Duration
	End                            sim.Time
	Compute, Intra, Inter, Blocked sim.Duration
}

func refCriticalPath(spans []Span) refCritPath {
	srt := refSorted(spans)
	n := len(srt)
	if n == 0 {
		return refCritPath{}
	}
	type best struct {
		len sim.Duration
		idx int
	}
	chain := make([]sim.Duration, n)
	pred := make([]int, n)
	byTrack := map[string]best{}
	byRank := map[int]best{}
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
			if s.Kind == KindTransfer && s.Dst != s.Rank {
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
		chain[i] = plen + refDur(s)
		pred[i] = p
	}
	tail := 0
	for i := 1; i < n; i++ {
		if chain[i] > chain[tail] {
			tail = i
		}
	}
	cp := refCritPath{Len: chain[tail], End: srt[tail].End}
	for i := tail; i >= 0; i = pred[i] {
		cp.Chain = append([]Span{srt[i]}, cp.Chain...)
	}
	for _, s := range cp.Chain {
		switch refClassOf(s) {
		case classInter:
			cp.Inter += refDur(s)
		case classIntra:
			cp.Intra += refDur(s)
		default:
			cp.Compute += refDur(s)
		}
	}
	cp.Blocked = sim.Duration(cp.End) - cp.Len
	return cp
}

func (cp refCritPath) Render() string {
	const keep = 12
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
			s.Start, refDur(s), gap, s.Kind, s.Track, s.Label)
		prev = s.End
	}
	return b.String()
}

func refBuildCommMatrix(spans []Span) CommMatrix {
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

func refSummarize(spans []Span) Summary {
	type key struct {
		kind  Kind
		track string
	}
	acc := map[key]*summaryRow{}
	for _, s := range spans {
		k := key{s.Kind, s.Track}
		r := acc[k]
		if r == nil {
			r = &summaryRow{kind: s.Kind, track: s.Track}
			acc[k] = r
		}
		r.count++
		r.busy += refDur(s)
		r.bytes += s.Bytes
	}
	var rows []summaryRow
	for _, r := range acc {
		rows = append(rows, *r)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].busy != rows[j].busy {
			return rows[i].busy > rows[j].busy
		}
		if rows[i].track != rows[j].track {
			return rows[i].track < rows[j].track
		}
		return rows[i].kind < rows[j].kind
	})
	return Summary{rows: rows}
}

// refChromeEvent is the Chrome trace-event "complete" record.
type refChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  string         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// refWriteChromeCells exports each cell's spans, sorted, under pid i+1 after
// a process_name record.
func refWriteChromeCells(w io.Writer, names []string, cells [][]Span) error {
	var events []refChromeEvent
	for i, spans := range cells {
		pid := i + 1
		events = append(events, refChromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": names[i]},
		})
		events = refChromeEvents(events, spans, pid)
	}
	return json.NewEncoder(w).Encode(events)
}

// refWriteChromeTrace exports one log's spans under pid 1.
func refWriteChromeTrace(w io.Writer, spans []Span) error {
	return json.NewEncoder(w).Encode(refChromeEvents(nil, spans, 1))
}

// refChromeEvents converts spans to complete events under one pid, after
// sorting them.
func refChromeEvents(events []refChromeEvent, spans []Span, pid int) []refChromeEvent {
	for _, s := range refSorted(spans) {
		ev := refChromeEvent{
			Name: s.Label,
			Cat:  s.Kind.String(),
			Ph:   "X",
			TS:   sim.Duration(s.Start).Micros(),
			Dur:  refDur(s).Micros(),
			PID:  pid,
			TID:  s.Track,
		}
		if s.Bytes > 0 {
			ev.Args = map[string]any{"bytes": s.Bytes}
			if bw := refBandwidth(s); bw > 0 {
				ev.Args["gbps"] = bw / 1e9
			}
		}
		events = append(events, ev)
	}
	return events
}
