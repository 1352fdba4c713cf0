package gpuccl

import (
	"testing"
	"testing/quick"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// planComm builds a throwaway world just to exercise plan computation.
func planComm(t *testing.T, n int) (*Comm, func()) {
	t.Helper()
	eng := sim.NewEngine()
	cl := gpu.NewCluster(eng, machine.Perlmutter(), n)
	w := NewWorld(cl)
	return w.Comm(0), eng.Close
}

func TestChunkSizesPartition(t *testing.T) {
	f := func(count uint16, ranks uint8) bool {
		n := int(ranks)%12 + 1
		c := int(count)
		starts := chunkSizes(c, n)
		if starts[0] != 0 || starts[n] != c {
			return false
		}
		for i := 0; i < n; i++ {
			if starts[i] > starts[i+1] {
				return false
			}
			// Balanced within one element.
			if starts[i+1]-starts[i] > c/n+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinePlanConservation(t *testing.T) {
	// Across all ranks, a root-broadcast pipeline must forward exactly
	// (n-1) copies of the payload in total: each non-terminal ring
	// position forwards every chunk once.
	for _, n := range []int{2, 3, 4, 8} {
		for _, root := range []int{0, 1, n - 1} {
			for _, bytes := range []int64{1 << 10, 3 << 20} {
				eng := sim.NewEngine()
				cl := gpu.NewCluster(eng, machine.Perlmutter(), n)
				w := NewWorld(cl)
				var totalSent int64
				steps := -1
				for r := 0; r < n; r++ {
					plan := w.Comm(r).pipelinePlan(bytes, root, true)
					if steps == -1 {
						steps = len(plan)
					} else if steps != len(plan) {
						t.Fatalf("n=%d: rank %d plan length %d != %d", n, r, len(plan), steps)
					}
					for _, sent := range plan {
						totalSent += sent
					}
				}
				// Each of the n-1 forwarding positions sends the whole
				// payload once (chunked, possibly with rounding slack).
				min := bytes * int64(n-1)
				max := min + int64(n)*(512<<10) // chunk rounding slack
				if totalSent < min || totalSent > max {
					t.Fatalf("n=%d root=%d bytes=%d: forwarded %d, want in [%d,%d]",
						n, root, bytes, totalSent, min, max)
				}
				eng.Close()
			}
		}
	}
}

func TestPipelinePlanReduceMirrors(t *testing.T) {
	// For the reduce direction, the root never sends and every other rank
	// sends the payload exactly once.
	const n = 5
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, machine.Perlmutter(), n)
	w := NewWorld(cl)
	const bytes = 1 << 20
	for root := 0; root < n; root++ {
		for r := 0; r < n; r++ {
			plan := w.Comm(r).pipelinePlan(bytes, root, false)
			var sent int64
			for _, b := range plan {
				sent += b
			}
			if r == root && sent != 0 {
				t.Fatalf("root %d sends %d bytes in reduce plan", root, sent)
			}
			if r != root && (sent < bytes || sent > bytes+(512<<10)) {
				t.Fatalf("rank %d (root %d) sends %d bytes, want ≈%d", r, root, sent, bytes)
			}
		}
	}
}

func TestSplitSubCommunicator(t *testing.T) {
	// Direct backend-level split: collectives stay inside the child.
	const n = 4
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, machine.Perlmutter(), n)
	w := NewWorld(cl)
	results := make([]float64, n)
	for r := 0; r < n; r++ {
		c := w.Comm(r)
		eng.Spawn("rank", func(p *sim.Proc) {
			sub := c.Split(p, c.Rank()%2, c.Rank())
			if sub.Size() != 2 {
				t.Errorf("sub size = %d", sub.Size())
			}
			buf := gpu.AllocBuffer[float64](c.dev, 1)
			buf.Data()[0] = float64(c.Rank())
			s := c.dev.DefaultStream()
			sub.AllReduce(p, s, buf.Whole(), buf.Whole(), gpu.ReduceSum)
			s.Synchronize(p)
			results[c.Rank()] = buf.Data()[0]
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Evens sum 0+2, odds 1+3.
	want := []float64{2, 4, 2, 4}
	for r, v := range results {
		if v != want[r] {
			t.Fatalf("rank %d: %v, want %v", r, v, want[r])
		}
	}
}

func TestGroupScopeSpansCommunicators(t *testing.T) {
	// A group opened on one handle must aggregate operations submitted
	// through a sub-communicator handle of the same rank (NCCL's
	// per-thread group semantics).
	const n = 2
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, machine.Perlmutter(), n)
	w := NewWorld(cl)
	ok := make([]bool, n)
	for r := 0; r < n; r++ {
		c := w.Comm(r)
		eng.Spawn("rank", func(p *sim.Proc) {
			sub := c.Split(p, 0, c.Rank()) // sub == world membership
			s := c.dev.DefaultStream()
			a := gpu.AllocBuffer[float64](c.dev, 8)
			b := gpu.AllocBuffer[float64](c.dev, 8)
			peer := 1 - sub.Rank()
			// Bidirectional exchange grouped via the PARENT handle but
			// submitted through the CHILD: must not deadlock.
			c.GroupStart()
			sub.Send(p, s, a.Whole(), peer)
			sub.Recv(p, s, b.Whole(), peer)
			c.GroupEnd(p, s)
			s.Synchronize(p)
			ok[c.Rank()] = true
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for r, v := range ok {
		if !v {
			t.Fatalf("rank %d did not finish", r)
		}
	}
}
