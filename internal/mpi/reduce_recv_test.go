package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// foldRef is the serial reference of a reduction: op folded over the ranks'
// vectors in rank order, with gpu.Reduce's exact operator definitions.
func foldRef(inputs [][]float64, op gpu.ReduceOp) []float64 {
	out := append([]float64(nil), inputs[0]...)
	for _, in := range inputs[1:] {
		for i, v := range in {
			switch op {
			case gpu.ReduceSum:
				out[i] += v
			case gpu.ReduceProd:
				out[i] *= v
			case gpu.ReduceMin:
				out[i] = math.Min(out[i], v)
			case gpu.ReduceMax:
				out[i] = math.Max(out[i], v)
			}
		}
	}
	return out
}

func firstDiff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestAllreduceDifferential is the safety net under the reduce-on-receive
// data path: every allreduce algorithm, in place and out of place, under all
// four operators, on layouts that are non-powers-of-two, irregular, one rank
// per node and multi-node, for counts that are odd, not divisible by the
// rank count and on both sides of the eager threshold (for the whole vector
// and for one ring chunk), is compared elementwise with a serial fold.
// Inputs are small integers, so every operator is exact in float64 whatever
// order an algorithm combines in. It also pins the two properties the fused seed copy must keep — an
// out-of-place call never writes sendBuf — and that no staging or scratch
// buffer outlives the cell.
func TestAllreduceDifferential(t *testing.T) {
	perNode := func(g int) *machine.Model {
		m := *machine.Perlmutter()
		m.GPUsPerNode, m.NICsPerNode = g, 1
		return &m
	}
	layouts := []struct {
		name  string
		model *machine.Model
		n     int
	}{
		{"1node-3", machine.Perlmutter(), 3},
		{"2x4", machine.Perlmutter(), 8},
		{"3x4", machine.Perlmutter(), 12},
		{"4+2-irregular", machine.Perlmutter(), 6},
		{"3x2", perNode(2), 6},
		{"5x1", perNode(1), 5},
	}
	algs := []AllreduceAlg{AlgAuto, AlgRecursiveDoubling, AlgRing, AlgHierarchical}
	ops := []gpu.ReduceOp{gpu.ReduceSum, gpu.ReduceProd, gpu.ReduceMin, gpu.ReduceMax}
	values := []float64{-2, -1, 1, 2, 3}
	eagerElems := int(machine.Perlmutter().Profile(machine.LibMPI, machine.APIHost).EagerMax / 8)

	for _, lay := range layouts {
		n := lay.n
		counts := []int{n, 4*n + 1, eagerElems - 1, eagerElems + 1, n*eagerElems + 7}
		for _, count := range counts {
			name := fmt.Sprintf("%s/count%d", lay.name, count)
			rng := rand.New(rand.NewSource(int64(n*1_000_003 + count*31)))
			inputs := make([][]float64, n)
			for r := range inputs {
				inputs[r] = make([]float64, count)
				for i := range inputs[r] {
					inputs[r][i] = values[rng.Intn(len(values))]
				}
			}
			root := rng.Intn(n)
			want := map[gpu.ReduceOp][]float64{}
			for _, op := range ops {
				want[op] = foldRef(inputs, op)
			}

			cl := runRanks(t, lay.model, n, func(p *sim.Proc, c *Comm) {
				mine := inputs[c.Rank()]
				send := gpu.AllocBuffer[float64](c.ep.dev, count)
				recv := gpu.AllocBuffer[float64](c.ep.dev, count)
				check := func(what string, got []float64, op gpu.ReduceOp) {
					if i := firstDiff(got, want[op]); i >= 0 {
						t.Errorf("%s: %s %v rank %d: elem %d = %v, want %v",
							name, what, op, c.Rank(), i, got[i], want[op][i])
					}
				}
				for _, alg := range algs {
					if alg == AlgHierarchical && !c.hierLayout().ok {
						continue
					}
					for _, op := range ops {
						copy(send.Data(), mine)
						for i := range recv.Data() {
							recv.Data()[i] = math.NaN() // the result must not depend on recv's old contents
						}
						c.AllreduceAlg(p, send.Whole(), recv.Whole(), op, alg)
						check(alg.String()+" out-of-place", recv.Data(), op)
						if i := firstDiff(send.Data(), mine); i >= 0 {
							t.Errorf("%s: %v %v rank %d: out-of-place call wrote sendBuf[%d]",
								name, alg, op, c.Rank(), i)
						}
						c.AllreduceAlg(p, send.Whole(), send.Whole(), op, alg)
						check(alg.String()+" in-place", send.Data(), op)
					}
				}
				for _, op := range ops {
					copy(send.Data(), mine)
					c.Reduce(p, send.Whole(), recv.Whole(), op, root)
					if c.Rank() == root {
						check("rooted reduce", recv.Data(), op)
					}
					if i := firstDiff(send.Data(), mine); i >= 0 {
						t.Errorf("%s: reduce %v rank %d wrote sendBuf[%d]", name, op, c.Rank(), i)
					}
				}
			})
			if st := gpu.PoolStats[float64](cl); st.Gets != st.Puts+st.Drops {
				t.Errorf("%s: leaked staging buffers: %+v", name, st)
			}
			if t.Failed() {
				return
			}
		}
	}
}

// TestRecvReduce drives the reducing receive through every way a payload can
// land: eager and rendezvous, matched from the unexpected queue (the message
// arrived first) and from the posted queue (the receive was first), with an
// exact source and with anySource, accumulating in place and as a first
// touch seeded from another buffer — and a message shorter than the receive
// buffer, of which only the delivered elements are combined.
func TestRecvReduce(t *testing.T) {
	eagerElems := int(machine.Perlmutter().Profile(machine.LibMPI, machine.APIHost).EagerMax / 8)
	for _, tc := range []struct {
		name       string
		elems      int
		recvFirst  bool
		anySource  bool
		firstTouch bool
	}{
		{name: "eager/unexpected", elems: 16},
		{name: "eager/posted", elems: 16, recvFirst: true},
		{name: "rendezvous/unexpected", elems: 4 * eagerElems},
		{name: "rendezvous/posted", elems: 4 * eagerElems, recvFirst: true},
		{name: "eager/anysource", elems: 16, anySource: true},
		{name: "rendezvous/anysource/posted", elems: 4 * eagerElems, recvFirst: true, anySource: true},
		{name: "eager/first-touch", elems: 16, firstTouch: true},
		{name: "rendezvous/first-touch/posted", elems: 4 * eagerElems, recvFirst: true, firstTouch: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const slack = 3 // the receive buffer is longer than the message
			runRanks(t, machine.Perlmutter(), 2, func(p *sim.Proc, c *Comm) {
				if c.Rank() == 0 {
					if tc.recvFirst {
						p.Advance(sim.Millisecond)
					}
					b := gpu.AllocBuffer[float64](c.ep.dev, tc.elems)
					for i := range b.Data() {
						b.Data()[i] = float64(i)
					}
					c.Send(p, b.Whole(), 1, 9)
					return
				}
				if !tc.recvFirst {
					p.Advance(sim.Millisecond)
					if len(c.ep.unexpected) != 1 {
						t.Errorf("expected the message in the unexpected queue, found %d", len(c.ep.unexpected))
					}
				}
				dst := gpu.AllocBuffer[float64](c.ep.dev, tc.elems+slack)
				seed := dst
				if tc.firstTouch {
					seed = gpu.AllocBuffer[float64](c.ep.dev, tc.elems+slack)
					for i := range dst.Data() {
						dst.Data()[i] = -7 // stale: a first touch must not read it
					}
				}
				for i := range seed.Data() {
					seed.Data()[i] = 1000
				}
				src := 0
				if tc.anySource {
					src = anySource
				}
				st := c.recvReduce(p, dst.Whole(), seed.Whole(), src, 9, gpu.ReduceSum)
				if st.source != 0 || st.tag != 9 || st.count != tc.elems {
					t.Errorf("status %+v", st)
				}
				untouched := 1000.0
				if tc.firstTouch {
					untouched = -7
				}
				for i, got := range dst.Data() {
					want := 1000 + float64(i)
					if i >= tc.elems { // beyond the message
						want = untouched
					}
					if got != want {
						t.Fatalf("dst[%d] = %v, want %v", i, got, want)
					}
				}
				if tc.firstTouch {
					for i, v := range seed.Data() {
						if v != 1000 {
							t.Fatalf("first touch wrote seed[%d] = %v", i, v)
						}
					}
				}
			})
		})
	}
}

// TestRecvReduceThroughNICStall is TestRendezvousRetriesThroughNICStall for a
// reducing receive: the rejected transfer attempts move no data, so however
// many times the handshake is retried the payload is combined exactly once.
func TestRecvReduceThroughNICStall(t *testing.T) {
	m := *machine.Perlmutter()
	m.GPUsPerNode, m.NICsPerNode = 1, 1
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, &m, 2)
	reg := metrics.New()
	cl.SetMetrics(reg)
	stallEnd := sim.Time(5 * sim.Millisecond)
	cl.Fabric.StallNIC(0, 0, 0, stallEnd)
	w := NewWorld(cl)
	const n = 1 << 16 // 512 KiB: rendezvous
	for r := 0; r < 2; r++ {
		c := w.CommWorld(r)
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			b := gpu.AllocBuffer[float64](c.ep.dev, n)
			for i := range b.Data() {
				b.Data()[i] = float64(1 + c.Rank())
			}
			if c.Rank() == 0 {
				c.Send(p, b.Whole(), 1, 1)
				return
			}
			c.recvReduce(p, b.Whole(), b.Whole(), 0, 1, gpu.ReduceSum)
			if p.Now() < stallEnd {
				t.Errorf("receive completed at %v, inside the stall window", p.Now())
			}
			for i, v := range b.Data() {
				if v != 3 {
					t.Fatalf("elem %d = %v after a retried reducing receive, want 3 (reduced exactly once)", i, v)
				}
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reg.Counter("mpi.rendezvous.retries").Value() == 0 {
		t.Fatal("the stall produced no rendezvous retry: the test did not exercise the retry path")
	}
}

// TestSendrecvReduceRejectsOverlap pins the assertion that makes reading a
// live sender buffer safe: a rank may not reduce into the window it is
// sending from.
func TestSendrecvReduceRejectsOverlap(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, machine.Perlmutter(), 2)
	w := NewWorld(cl)
	for r := 0; r < 2; r++ {
		c := w.CommWorld(r)
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			b := gpu.AllocBuffer[float64](c.ep.dev, 8)
			peer := 1 - c.Rank()
			// Disjoint halves are fine ...
			c.sendrecvReduce(p, b.View(0, 4), peer, 0, b.View(4, 4), b.View(4, 4), peer, 0, gpu.ReduceSum)
			// ... windows sharing one element are not.
			c.sendrecvReduce(p, b.View(0, 5), peer, 1, b.View(4, 4), b.View(4, 4), peer, 1, gpu.ReduceSum)
		})
	}
	err := eng.Run()
	if pe, ok := err.(*sim.PanicError); !ok || !strings.Contains(pe.Error(), "overlapping") {
		t.Fatalf("expected the overlap panic, got %v", err)
	}
}
