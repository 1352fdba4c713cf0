// Package gpushmem implements a GPU-centric OpenSHMEM library in the mold
// of NVSHMEM: a PGAS symmetric heap, one-sided Put/Get with signal
// operations, host (stream-ordered) and device (in-kernel) APIs with
// THREAD/WARP/BLOCK execution granularity, quiet/fence semantics, barriers,
// and team collectives.
//
// The defining property UNICONN has to unify: communication is one-sided
// and asynchronous — the sender names the receiver's (symmetric) buffer and
// completion is observed through signal words, not matching receives.
package gpushmem

import (
	"encoding/binary"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/lockstep"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// ThreadGroup selects the GPU execution granularity of a device-side
// operation (paper §IV-F4).
type ThreadGroup int

// Device-side thread granularities.
const (
	Thread ThreadGroup = iota
	Warp
	Block
)

func (g ThreadGroup) String() string {
	switch g {
	case Thread:
		return "THREAD"
	case Warp:
		return "WARP"
	case Block:
		return "BLOCK"
	default:
		return fmt.Sprintf("ThreadGroup(%d)", int(g))
	}
}

// granEff is the fraction of the path's effective bandwidth a single
// communicating unit of this granularity can drive.
func (g ThreadGroup) granEff() float64 {
	switch g {
	case Thread:
		return 0.06
	case Warp:
		return 0.45
	default:
		return 1.0
	}
}

// SignalOp is the atomic applied to the signal word on put-with-signal
// delivery.
type SignalOp int

// Signal update operations.
const (
	SignalSet SignalOp = iota
	signalAdd
)

// Cmp is a signal wait comparison.
type Cmp int

// Signal wait comparisons.
const (
	cmpEQ Cmp = iota
	cmpNE
	CmpGE
	cmpGT
)

func (c Cmp) match(v, ref uint64) bool {
	switch c {
	case cmpEQ:
		return v == ref
	case cmpNE:
		return v != ref
	case CmpGE:
		return v >= ref
	case cmpGT:
		return v > ref
	default:
		panic("gpushmem: unknown comparison")
	}
}

// World is one GPUSHMEM job; every device hosts one PE.
type World struct {
	cluster *gpu.Cluster
	pes     []*PE
	allocs  map[uint64]*allocRec
	// In-flight collectives (internal/lockstep), team splits and team
	// shrinks, keyed by (team id, the team's call sequence, kind).
	insts      *lockstep.Table
	splits     map[lockstep.Key]*splitInst
	shrinks    map[lockstep.Key]*shrinkInst
	nextTeamID uint64

	// mColl holds the per-kind collective timing histograms, all nil when
	// metrics are disabled (collectives.go).
	mColl [2][nKinds]*metrics.Histogram

	// Stream-op labels of the host-side puts by target PE, formatted once.
	putLabels, putSignalLabels gpu.OpLabels
}

// NewWorld initializes the library over the cluster. It panics if the
// machine has no GPUSHMEM implementation (LUMI in the paper).
func NewWorld(cluster *gpu.Cluster) *World {
	if !cluster.Model.HasGPUSHMEM {
		panic(fmt.Sprintf("gpushmem: %s has no GPUSHMEM implementation", cluster.Model.Name))
	}
	w := &World{
		cluster:         cluster,
		putLabels:       gpu.OpLabels{Format: "put->%d"},
		putSignalLabels: gpu.OpLabels{Format: "put-signal->%d"},
		allocs:          map[uint64]*allocRec{},
		insts:           lockstep.NewTable(cluster, machine.LibGPUSHMEM),
		splits:          map[lockstep.Key]*splitInst{},
		shrinks:         map[lockstep.Key]*shrinkInst{},
	}
	n := len(cluster.Devices)
	for i := range cluster.Devices {
		pe := &PE{
			w: w, rank: i,
			issued:    sim.NewCounter(fmt.Sprintf("pe%d.issued", i), 0),
			completed: sim.NewCounter(fmt.Sprintf("pe%d.completed", i), 0),
		}
		pe.world = &Team{pe: pe, g: lockstep.Group{Size: n, Rank: i}}
		w.pes = append(w.pes, pe)
	}
	if r := cluster.Metrics; r != nil {
		w.mColl = collHists(r)
	}
	return w
}

// PE returns processing element r.
func (w *World) PE(r int) *PE { return w.pes[r] }

// PE is one processing element (rank) of the job.
type PE struct {
	w     *World
	rank  int
	world *Team // the all-PEs team, built once (team.go)

	allocSeq  uint64
	launchSeq uint64

	// NBI tracking for Quiet.
	issued    *sim.Counter
	completed *sim.Counter

	freePuts []*put    // delivered puts, recycled by transfer
	freeOps  []*hostOp // completed host stream ops, recycled by newHostOp
}

// size reports the PE count (nvshmem_n_pes).
func (pe *PE) size() int { return len(pe.w.pes) }

func (pe *PE) model() *machine.Model { return pe.w.cluster.Model }

// allocRec is one symmetric allocation: the same logical object on every
// PE's heap.
type allocRec struct {
	bufs    []gpu.View // per PE, whole-buffer views
	sigs    [][]*sim.Counter
	typed   any // the *Sym[T] that owns the storage
	storage gpu.Storage
}

// Sym is a typed symmetric allocation handle.
type Sym[T gpu.Elem] struct {
	rec  *allocRec
	bufs []*gpu.Buffer[T]
}

// Malloc allocates n elements of symmetric memory. Like nvshmem_malloc it
// is a collective: every PE must call it in the same order, and the
// allocation ids are matched by call sequence. The caller's handle is
// shared: the first PE to call creates the storage for all PEs.
func Malloc[T gpu.Elem](pe *PE, n int) *Sym[T] { return MallocAs[T](pe, n, gpu.Zeroed) }

// MallocAs is Malloc of storage s (gpu.Storage): a symmetric payload that
// modelled cells put and get by length alone is gpu.Phantom, one a
// functional cell writes before it reads may be gpu.Uninit. Signal words and
// anything else that is read back must come from Malloc.
func MallocAs[T gpu.Elem](pe *PE, n int, s gpu.Storage) *Sym[T] {
	pe.allocSeq++
	id := pe.allocSeq
	rec := pe.w.allocs[id]
	if rec == nil {
		npes := pe.size()
		sym := &Sym[T]{bufs: make([]*gpu.Buffer[T], npes)}
		rec = &allocRec{bufs: make([]gpu.View, npes), storage: s}
		for r := 0; r < npes; r++ {
			sym.bufs[r] = gpu.Alloc[T](pe.w.cluster.Devices[r], n, s)
			rec.bufs[r] = sym.bufs[r].Whole()
		}
		rec.sigs = make([][]*sim.Counter, npes)
		sym.rec = rec
		rec.typed = sym
		pe.w.allocs[id] = rec
		return sym
	}
	sym, ok := rec.typed.(*Sym[T])
	if !ok || sym.bufs[0].Len() != n || rec.storage != s {
		panic("gpushmem: mismatched collective Malloc across PEs")
	}
	return sym
}

// Local returns the PE-local buffer of the symmetric allocation.
func (s *Sym[T]) Local(rank int) *gpu.Buffer[T] { return s.bufs[rank] }

// Ref takes a type-erased symmetric reference covering [off, off+n).
func (s *Sym[T]) Ref(off, n int) SymRef { return SymRef{rec: s.rec, off: off, n: n} }

// WholeRef references the full allocation.
func (s *Sym[T]) WholeRef() SymRef { return s.Ref(0, s.bufs[0].Len()) }

// SymRef is a type-erased window into a symmetric allocation: the same
// (offset, length) resolved on any PE.
type SymRef struct {
	rec *allocRec
	off int
	n   int
}

// on resolves the reference on one PE.
func (r SymRef) on(rank int) gpu.View { return r.rec.bufs[rank].Slice(r.off, r.n) }

// SigRef names one signal word: element idx of a symmetric uint64
// allocation.
type SigRef struct {
	rec *allocRec
	idx int
}

// SigRef derives a signal-word reference from a symmetric uint64 allocation.
func (s *Sym[T]) SigRef(idx int) SigRef {
	if s.bufs[0].Whole().ElemSize() != 8 {
		panic("gpushmem: signal words must be 64-bit")
	}
	return SigRef{rec: s.rec, idx: idx}
}

// counter returns the simulation-side condition variable backing the signal
// word on one PE, creating it on first use.
func (sr SigRef) counter(rank int) *sim.Counter {
	rec := sr.rec
	if rec.sigs[rank] == nil {
		rec.sigs[rank] = make([]*sim.Counter, rec.bufs[rank].Len())
	}
	if rec.sigs[rank][sr.idx] == nil {
		rec.sigs[rank][sr.idx] = sim.NewCounter(
			fmt.Sprintf("sig[%d]@pe%d", sr.idx, rank), 0)
	}
	return rec.sigs[rank][sr.idx]
}

// apply performs the signal update on the target PE.
func (sr SigRef) apply(eng *sim.Engine, rank int, op SignalOp, val uint64) {
	c := sr.counter(rank)
	switch op {
	case SignalSet:
		c.Set(eng, val)
	case signalAdd:
		c.Add(eng, val)
	default:
		panic("gpushmem: unknown signal op")
	}
}

// AppendState appends the PE's outstanding non-blocking operations (issued,
// not yet completed) for a fast-forward digest (sim.Engine.AppendState).
func (pe *PE) AppendState(b []byte) []byte {
	return binary.AppendUvarint(b, pe.issued.Value()-pe.completed.Value())
}
