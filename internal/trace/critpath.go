package trace

// Post-hoc analysis over a span log's View: per-rank time attribution, the
// critical path (longest dependency chain), and the rank-to-rank
// communication matrix. All three use only integer virtual-time arithmetic
// and never consult wall clock, so their output is byte-stable across runs
// and sweep worker counts.

import (
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
//
// Each rank's lane sweeps its intervals in view order, closing those that
// end by the next start; the time between two instants goes to the highest
// class active over it. A band is swept copy by copy until its lanes come
// back, one period later, to the state the copy before left them in; the
// copies left then add that copy's coverage each (band.fold).
func Attribute(v *View, end sim.Time) []RankBreakdown {
	nRanks := 0
	for r := range v.each() {
		nRanks = max(nRanks, int(r.rank)+1, int(r.src)+1, int(r.dst)+1)
	}
	if nRanks == 0 || end <= 0 {
		return nil
	}
	lanes := make([]lane, nRanks)
	add := func(rank int32, pos int, r *rec) {
		if rank < 0 {
			return
		}
		if stop := min(r.end, end); r.start < stop {
			lanes[rank].open(r.start, stop, v.classOf(r), int32(pos))
		}
	}
	span := func(pos int, r *rec) {
		if Kind(r.kind) == KindTransfer {
			add(r.src, pos, r)
			if r.dst != r.src {
				add(r.dst, pos, r)
			}
			return
		}
		add(r.rank, pos, r)
	}
	v.walk(span, func(b *band) {
		// The lanes the band opens intervals on; a band reaching past the
		// horizon is clipped, not periodic, and is swept in full.
		var touched []int32
		periodic := true
		for _, h := range b.period {
			r := v.rec(h)
			if r.start >= r.end {
				continue
			}
			periodic = periodic && r.end.Add(sim.Duration(b.first+b.count-1)*b.d) <= end
			ends := [2]int32{r.rank, r.rank}
			if Kind(r.kind) == KindTransfer {
				ends = [2]int32{r.src, r.dst}
			}
			for _, rank := range ends {
				if rank >= 0 && !slices.Contains(touched, rank) {
					touched = append(touched, rank)
				}
			}
		}
		horizon := v.bandRec(b, b.count-1, len(b.period)-1).start // no span of the band starts later
		var was, is []laneState
		b.fold(func(c int) {
			for o := range b.period {
				r := v.bandRec(b, c, o)
				span(b.at+c*len(b.period)+o, &r)
			}
		}, func(c int) bool {
			if !periodic {
				return false
			}
			shift := sim.Time(b.first+c) * sim.Time(b.d)
			was, is = is, was[:0]
			ok := true
			for _, rank := range touched {
				st, settled := lanes[rank].state(shift, b.at, horizon)
				is = append(is, st)
				ok = ok && settled
			}
			return ok && len(was) == len(is) && slices.EqualFunc(was, is, laneState.equal)
		}, func(c, k int) {
			for i, rank := range touched {
				lanes[rank].skip(k, b.d, b.at, &was[i], &is[i])
			}
		})
	})

	out := make([]RankBreakdown, nRanks)
	for rank := range lanes {
		l := &lanes[rank]
		l.advance(end)
		b := RankBreakdown{Rank: rank, Total: sim.Duration(end)}
		b.Compute = l.covered[classCompute]
		b.Intra = l.covered[classIntra]
		b.Inter = l.covered[classInter]
		b.Blocked = b.Total - b.Compute - b.Intra - b.Inter
		out[rank] = b
	}
	return out
}

// lane is one rank's attribution sweep: the instant it has reached, the
// intervals open there by class, the time covered so far per class, and
// the open intervals' ends.
type lane struct {
	now     sim.Time
	active  [numClasses]int
	covered [numClasses]sim.Duration
	closes  queue[closing, byClose]
}

// closing is the end of an open interval: when, its class, and the position
// of its span.
type closing struct {
	at    sim.Time
	class spanClass
	pos   int32
}

// byClose orders closings by (at, class).
type byClose struct{}

func (byClose) less(a, b closing) bool { return a.at < b.at || a.at == b.at && a.class < b.class }

// open opens an interval [start, stop) of class c.
func (l *lane) open(start, stop sim.Time, c spanClass, pos int32) {
	l.advance(start)
	l.active[c]++
	l.closes.push(closing{stop, c, pos})
}

// advance moves the lane to t, closing every interval that ends by then.
func (l *lane) advance(t sim.Time) {
	for len(l.closes.live()) > 0 && l.closes.live()[0].at <= t {
		e := l.closes.pop()
		l.reach(e.at)
		l.active[e.class]--
	}
	l.reach(t)
}

// reach covers [now, t) by the highest active class.
func (l *lane) reach(t sim.Time) {
	if t <= l.now {
		return
	}
	for c := numClasses - 1; c >= classCompute; c-- {
		if l.active[c] > 0 {
			l.covered[c] += t.Sub(l.now)
			break
		}
	}
	l.now = t
}

// laneState is a lane relative to a band copy's shift: what decides the
// coverage of the copies to come, and the coverage so far.
type laneState struct {
	now     sim.Duration
	active  [numClasses]int
	closes  []closing // the band's open intervals, relative, in order
	covered [numClasses]sim.Duration
}

// equal reports whether two states evolve alike; coverage is not compared.
func (a laneState) equal(b laneState) bool {
	return a.now == b.now && a.active == b.active &&
		slices.EqualFunc(a.closes, b.closes, func(x, y closing) bool { return x.at == y.at && x.class == y.class })
}

// state returns the lane relative to shift, and whether it can be periodic:
// every interval open on it that a span before the band at opened ends
// after horizon, so that it closes in no copy.
func (l *lane) state(shift sim.Time, at int, horizon sim.Time) (laneState, bool) {
	st := laneState{now: l.now.Sub(shift), active: l.active, covered: l.covered}
	for _, e := range l.closes.live() {
		if int(e.pos) < at {
			if e.at <= horizon {
				return st, false
			}
			continue
		}
		st.closes = append(st.closes, closing{at: e.at - shift, class: e.class})
	}
	return st, true
}

// skip accounts for k copies of a band past the one that left the lane in
// state is, whose copy before left it in was: each adds is's coverage less
// was's, and the band's open intervals move k periods later.
func (l *lane) skip(k int, d sim.Duration, at int, was, is *laneState) {
	shift := sim.Duration(k) * d
	for c := range l.covered {
		l.covered[c] += sim.Duration(k) * (is.covered[c] - was.covered[c])
	}
	l.now = l.now.Add(shift)
	live := l.closes.live()
	for i := range live {
		if int(live[i].pos) >= at {
			live[i].at = live[i].at.Add(shift)
		}
	}
	l.closes.sort()
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
	// chain is the path in time order, as positions in the view it was
	// found in; a stretch that repeats is held once (pieces).
	chain  []int32
	pieces []piece
	count  int
	v      *View
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

// piece is the next n positions of a chain, repeated reps times, the r-th
// time (r = 0..reps-1) shifted by r*stride positions.
type piece struct{ n, reps, stride int }

// Count reports the number of spans on the path.
func (cp CritPath) Count() int { return cp.count }

// pos returns the position of the path's i-th span.
func (cp CritPath) pos(i int) int {
	off := 0
	for _, p := range cp.pieces {
		if i < p.n*p.reps {
			return int(cp.chain[off+i%p.n]) + i/p.n*p.stride
		}
		i -= p.n * p.reps
		off += p.n
	}
	panic("trace: chain index out of range")
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
// order: spans whose End precedes the current Start are committed, in (End,
// position) order, from a heap of pending spans into per-track and per-rank
// "best chain so far" tables, indexed by track id and rank, so each span
// extends the best committed predecessor it can see. Ties break toward the
// earlier position, keeping the result deterministic. O(n log w) for w
// spans in flight at once.
//
// A band is swept copy by copy until the tables its spans read and the
// pending spans are, after a copy, those after the copy before shifted one
// period later: every entry and pending span a band position one period on,
// its chain value longer by the same Δ, with no span before the band
// raising a table during that copy or pending to commit during a later one.
// From there every copy repeats the last one shifted, so the copies left are
// accounted, not swept, and the walk back from the tail folds the stretch
// of the chain that repeats.
// Otherwise the whole band is swept.
func CriticalPath(v *View) CritPath {
	if v.Len() == 0 {
		return CritPath{}
	}
	s := cpSweep{v: v, tail: -1, tailLen: -1}
	lo, hi := int32(0), int32(0)
	for r := range v.each() {
		lo, hi = min(lo, r.rank, r.dst), max(hi, r.rank, r.dst)
	}
	s.byTrack, s.byRank, s.lo = make([]best, len(v.syms)), make([]best, hi-lo+1), lo
	explicit := len(v.order)
	for _, b := range v.bands {
		explicit += min(b.count, 4) * len(b.period)
	}
	s.nodes, s.pending.q = make([]node, 0, explicit), make([]pending, 0, 64)
	v.walk(s.span, s.band)

	cp := CritPath{v: v, Len: s.tailLen, End: v.at(int(s.tail)).end}
	cp.chain, cp.pieces = s.walk()
	off := 0
	for _, p := range cp.pieces {
		cp.count += p.n * p.reps
		off += p.n
		for _, pos := range cp.chain[off-p.n : off] {
			r := v.at(int(pos))
			d := sim.Duration(p.reps) * r.dur()
			switch v.classOf(&r) {
			case classInter:
				cp.Inter += d
			case classIntra:
				cp.Intra += d
			default:
				cp.Compute += d
			}
		}
	}
	cp.Blocked = sim.Duration(cp.End) - cp.Len
	return cp
}

// best is a table entry: the best chain value committed on its track or
// rank and the position holding it. A predecessor must beat 0, so an entry
// never raised above 0 reads as absent.
type best struct {
	len sim.Duration
	pos int32
}

// pending is a visited span the sweep has not committed: its end, position,
// chain value and the entries it raises (dst is rank unless it is a message
// edge's delivery rank).
type pending struct {
	end       sim.Time
	pos       int32
	track     uint32
	rank, dst int32
	len       sim.Duration
}

// byEnd orders pending spans by (end, position).
type byEnd struct{}

func (byEnd) less(a, b pending) bool { return a.end < b.end || a.end == b.end && a.pos < b.pos }

// cpSweep is CriticalPath's state.
type cpSweep struct {
	v               *View
	byTrack, byRank []best
	lo              int32
	pending         queue[pending, byEnd] // by (end, position)
	// nodes are the visited positions' chain values and predecessors;
	// visits maps the visited positions to them and folds the positions
	// accounted, not visited.
	nodes   []node
	visits  []visit
	folds   []folded
	tail    int32
	tailLen sim.Duration
	delta   sim.Duration // Δ of the band being folded
	// bandAt is the band being swept's first position, and raisedBefore
	// whether a span before it raised a table entry since the last copy.
	bandAt       int32
	raisedBefore bool
}

// node is a visited position's chain value and predecessor (-1 at a chain
// head).
type node struct {
	val  sim.Duration
	pred int32
}

// visit is n consecutive visited positions from pos, at nodes[idx:].
type visit struct{ pos, n, idx int }

// folded is positions [from, to) of a band: position p repeats position
// p-j*period of the copy at base (j = (p-base)/period), its chain value
// longer by j*delta and its predecessor j*period positions later.
type folded struct {
	from, to, base, period int
	delta                  sim.Duration
}

// raise commits chain value e.len at e.pos into b, and reports whether it
// changed b.
func raise(b *best, e *pending) bool {
	if e.len > b.len {
		*b = best{e.len, e.pos}
		return true
	}
	return false
}

// span visits position pos.
func (s *cpSweep) span(pos int, r *rec) {
	for len(s.pending.live()) > 0 && s.pending.live()[0].end <= r.start {
		e := s.pending.pop()
		raised := raise(&s.byTrack[e.track], &e)
		raised = raise(&s.byRank[e.rank-s.lo], &e) || raised
		if e.dst != e.rank {
			raised = raise(&s.byRank[e.dst-s.lo], &e) || raised
		}
		s.raisedBefore = s.raisedBefore || raised && e.pos < s.bandAt
	}
	p, plen := int32(-1), sim.Duration(0)
	if b := s.byTrack[r.track]; b.len > plen {
		p, plen = b.pos, b.len
	}
	if b := s.byRank[r.rank-s.lo]; b.len > plen {
		p, plen = b.pos, b.len
	}
	val := plen + r.dur()
	if n := len(s.visits); n > 0 && s.visits[n-1].pos+s.visits[n-1].n == pos {
		s.visits[n-1].n++
	} else {
		s.visits = append(s.visits, visit{pos, 1, len(s.nodes)})
	}
	s.nodes = append(s.nodes, node{val, p})
	if val > s.tailLen {
		s.tail, s.tailLen = int32(pos), val
	}
	dst := r.rank
	if Kind(r.kind) == KindTransfer { // message edge: delivery to Dst
		dst = r.dst
	}
	s.pending.push(pending{end: r.end, pos: int32(pos), track: r.track, rank: r.rank, dst: dst, len: val})
}

// cpState is what decides the chain values of a band's next copy: the
// entries its spans read, and the spans pending. It decides them alone
// when settled: no span before the band is pending that a copy commits.
type cpState struct {
	entries []best
	pending []pending
	settled bool
}

// band visits band b, folding it once its copies repeat.
func (s *cpSweep) band(b *band) {
	v, L := s.v, len(b.period)
	var tracks []uint32
	var ranks []int32
	for _, h := range b.period {
		r := v.rec(h)
		if !slices.Contains(tracks, r.track) {
			tracks = append(tracks, r.track)
		}
		ends := [2]int32{r.rank, r.rank}
		if Kind(r.kind) == KindTransfer {
			ends[1] = r.dst
		}
		for _, rank := range ends {
			if !slices.Contains(ranks, rank) {
				ranks = append(ranks, rank)
			}
		}
	}
	horizon := v.bandRec(b, b.count-1, L-1).start // no span of the band starts later
	var was, is cpState
	s.bandAt = int32(b.at)
	b.fold(func(c int) {
		for o := range L {
			r := v.bandRec(b, c, o)
			s.span(b.at+c*L+o, &r)
		}
	}, func(c int) bool {
		was, is = is, cpState{was.entries[:0], was.pending[:0], true}
		for _, t := range tracks {
			is.entries = append(is.entries, s.byTrack[t])
		}
		for _, r := range ranks {
			is.entries = append(is.entries, s.byRank[r-s.lo])
		}
		for _, e := range s.pending.live() {
			switch {
			case int(e.pos) >= b.at:
				is.pending = append(is.pending, e)
			case e.end <= horizon: // a span before the band that a copy commits
				is.settled = false
			}
		}
		// Copy c took was to is by the band's spans alone only if no span
		// before the band raised an entry during it: that raises the values
		// of one copy, not of every copy.
		quiet := !s.raisedBefore
		s.raisedBefore = false
		return c > 0 && (was.settled || quiet) && is.settled && s.repeats(&was, &is, b.at, L, b.d)
	}, func(c, k int) {
		for _, t := range tracks {
			s.byTrack[t].shift(k, L, s.delta)
		}
		for _, r := range ranks {
			s.byRank[r-s.lo].shift(k, L, s.delta)
		}
		live := s.pending.live()
		for i := range live {
			if e := &live[i]; int(e.pos) >= b.at {
				e.end, e.pos, e.len = e.end.Add(sim.Duration(k)*b.d), e.pos+int32(k*L), e.len+sim.Duration(k)*s.delta
			}
		}
		s.pending.sort()
		// The copies left are copy c's values, longer by Δ each: with Δ > 0
		// the last holds their best, at copy c's best offset.
		start := b.at + c*L
		if s.delta > 0 {
			q, best := start, sim.Duration(-1)
			for o := range L {
				if val, _ := s.lookup(start + o); val > best {
					q, best = start+o, val
				}
			}
			if best += sim.Duration(k) * s.delta; best > s.tailLen {
				s.tail, s.tailLen = int32(q+k*L), best
			}
		}
		s.folds = append(s.folds, folded{from: start + L, to: b.last(), base: start, period: L, delta: s.delta})
	})
}

// shift moves a present entry k copies on.
func (b *best) shift(k, period int, delta sim.Duration) {
	if b.len > 0 {
		b.len, b.pos = b.len+sim.Duration(k)*delta, b.pos+int32(k*period)
	}
}

// repeats reports whether state is is state was one copy on: every entry
// and pending span a band position (from at on) period positions later,
// its chain value longer by one Δ, the same for all (recorded in s.delta).
// An absent entry stays absent only while Δ is 0.
func (s *cpSweep) repeats(was, is *cpState, at, period int, d sim.Duration) bool {
	if len(was.pending) != len(is.pending) {
		return false
	}
	delta, known, absent := sim.Duration(0), false, false
	same := func(len0, len1 sim.Duration, pos0, pos1 int32) bool {
		if int(pos0) < at || int(pos1) != int(pos0)+period {
			return false
		}
		if !known {
			delta, known = len1-len0, true
		}
		return len1-len0 == delta
	}
	for i, a := range was.entries {
		b := is.entries[i]
		switch {
		case (a.len > 0) != (b.len > 0):
			return false
		case a.len == 0:
			absent = true
		case !same(a.len, b.len, a.pos, b.pos):
			return false
		}
	}
	for i, a := range was.pending {
		b := is.pending[i]
		if b.end != a.end.Add(d) || b.track != a.track || b.rank != a.rank || b.dst != a.dst || !same(a.len, b.len, a.pos, b.pos) {
			return false
		}
	}
	s.delta = delta
	return !absent || delta == 0
}

// lookup returns position pos's chain value and predecessor.
func (s *cpSweep) lookup(pos int) (sim.Duration, int32) {
	for _, f := range s.folds {
		if pos >= f.from && pos < f.to {
			j := (pos - f.base) / f.period
			val, pred := s.lookup(pos - j*f.period)
			if pred >= 0 {
				pred += int32(j * f.period)
			}
			return val + sim.Duration(j)*f.delta, pred
		}
	}
	i := 0
	if len(s.visits) > 1 {
		i = sort.Search(len(s.visits), func(i int) bool { return s.visits[i].pos+s.visits[i].n > pos })
	}
	k := s.visits[i].idx + pos - s.visits[i].pos
	return s.nodes[k].val, s.nodes[k].pred
}

// walk follows the predecessors back from the tail and returns the chain in
// time order with its pieces. Inside a fold a position's predecessor is its
// copy's, shifted, so once the walk meets a period offset it met D copies
// later, the stretch since then repeats D copies earlier each time for as
// long as it stays inside the fold: it is kept once, with its repetitions.
func (s *cpSweep) walk() ([]int32, []piece) {
	room := len(s.nodes)
	for _, f := range s.folds {
		room += 2 * f.period
	}
	chain := make([]int32, 0, room)
	var pieces []piece // in walk order, strides negative
	done := 0          // chain positions the pieces hold
	var seen []int     // per offset of the fold the walk is in: the chain index that met it, or -1
	in := -1
	for p := int(s.tail); p >= 0; {
		fi := slices.IndexFunc(s.folds, func(f folded) bool { return p >= f.from && p < f.to })
		if fi != in {
			in, seen = fi, seen[:0]
			if fi >= 0 {
				for range s.folds[fi].period {
					seen = append(seen, -1)
				}
			}
		}
		if fi >= 0 {
			f := &s.folds[fi]
			copyOf := func(p int) int { return (p - f.base) / f.period }
			o := (p - f.base) % f.period
			if k := seen[o]; k >= 0 {
				d := copyOf(int(chain[k])) - copyOf(p)
				// chain[k:] repeats from p on, d copies earlier each time,
				// while its earliest span stays in the fold.
				if reps := (copyOf(int(chain[len(chain)-1])) - 1) / d; reps > 0 {
					if k > done {
						pieces = append(pieces, piece{k - done, 1, 0})
					}
					pieces = append(pieces, piece{len(chain) - k, reps + 1, -d * f.period})
					done = len(chain)
					p -= reps * d * f.period
					for i := range seen {
						seen[i] = -1
					}
					continue
				}
			}
			seen[o] = len(chain)
		}
		chain = append(chain, int32(p))
		_, pred := s.lookup(p)
		p = int(pred)
	}
	if len(chain) > done {
		pieces = append(pieces, piece{len(chain) - done, 1, 0})
	}
	// Time order: reversed, a repeated stretch held by its earliest
	// repetition.
	slices.Reverse(chain)
	slices.Reverse(pieces)
	off := 0
	for i := range pieces {
		p := &pieces[i]
		if p.reps > 1 {
			for j := off; j < off+p.n; j++ {
				chain[j] += int32((p.reps - 1) * p.stride)
			}
			p.stride = -p.stride
		}
		off += p.n
	}
	return chain, pieces
}

// Render formats the critical path: the class breakdown and the chain, one
// span per line with the idle gap since its predecessor. Long chains elide
// the middle (the head and tail carry the structure; the elision count keeps
// the output size bounded and deterministic).
func (cp CritPath) Render() string {
	const keep = 12 // spans shown at each end of a long chain
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: %s busy over %s (compute %s, intra %s, inter %s, blocked %s), %d spans\n",
		cp.Len, sim.Duration(cp.End), cp.Compute, cp.Intra, cp.Inter, cp.Blocked, cp.count)
	prev := sim.Time(0)
	for i := 0; i < cp.count; i++ {
		if cp.count > 2*keep+1 && i == keep {
			fmt.Fprintf(&b, "  ... %d spans elided ...\n", cp.count-2*keep)
			i = cp.count - keep - 1 // the last elided span ends where the tail's wait starts
			prev = cp.v.at(cp.pos(i)).end
			continue
		}
		s := cp.v.at(cp.pos(i))
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
	for r, copies := range v.each() {
		if Kind(r.kind) != KindTransfer {
			continue
		}
		ranks = max(ranks, int(r.src)+1, int(r.dst)+1)
		if r.src >= 0 && r.dst >= 0 {
			bytes += int64(copies) * r.bytes
			msgs += int64(copies)
		}
	}
	return ranks, bytes, msgs
}

// BuildCommMatrix accumulates the communication matrix over the spans, a
// band's period once per copy. Ranks are inferred as 0..max endpoint
// observed.
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
	for r, copies := range v.each() {
		if Kind(r.kind) != KindTransfer || r.src < 0 || r.dst < 0 {
			continue
		}
		m.Bytes[r.src][r.dst] += int64(copies) * r.bytes
		m.Count[r.src][r.dst] += int64(copies)
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

// walk visits the view in order: each explicit span, with its position,
// through span, and each band through band.
func (v *View) walk(span func(pos int, r *rec), band func(b *band)) {
	k := 0
	for i := range v.bands {
		b := &v.bands[i]
		for ; k < b.cut; k++ {
			span(b.at-b.cut+k, v.ptr(v.order[k]))
		}
		band(b)
	}
	for off := v.n - len(v.order); k < len(v.order); k++ {
		span(off+k, v.ptr(v.order[k]))
	}
}

// fold sweeps a band for an analysis: visit sweeps copy c (0-based), and
// after every copy but the last repeats reports whether the analysis' state
// is now the state the copy before left, one period later — from there each
// copy repeats the last, shifted. On the first yes skip accounts for the k
// copies left after copy c, and fold returns.
func (b *band) fold(visit func(c int), repeats func(c int) bool, skip func(c, k int)) {
	for c := range b.count {
		visit(c)
		if c < b.count-1 && repeats(c) {
			skip(c, b.count-1-c)
			return
		}
	}
}

// queue holds items in less order, the next at its head. Spans are
// visited nearly in end order, so an item joins a step or two from the
// back, and one leaves from the front.
type queue[T any, O order[T]] struct {
	q    []T
	head int
}

// order is a queue's order, a zero-size type: its less inlines.
type order[T any] interface{ less(a, b T) bool }

// live returns the items in order.
func (q *queue[T, O]) live() []T { return q.q[q.head:] }

func (q *queue[T, O]) push(x T) {
	var by O
	q.q = append(q.q, x)
	i := len(q.q) - 1
	for ; i > q.head && by.less(x, q.q[i-1]); i-- {
		q.q[i] = q.q[i-1]
	}
	q.q[i] = x
}

// pop removes the first item; the slice is reused once half of it is gone.
func (q *queue[T, O]) pop() T {
	x := q.q[q.head]
	q.head++
	if 2*q.head >= len(q.q) {
		q.q, q.head = q.q[:copy(q.q, q.q[q.head:])], 0
	}
	return x
}

// sort restores the order after the items moved.
func (q *queue[T, O]) sort() {
	var by O
	slices.SortFunc(q.live(), func(a, b T) int {
		if by.less(a, b) {
			return -1
		}
		if by.less(b, a) {
			return 1
		}
		return 0
	})
}
