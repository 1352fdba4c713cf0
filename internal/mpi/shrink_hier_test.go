package mpi

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// TestShrinkRebuildsHierLayout pins the interaction between ShrinkExcluding
// and the hierarchical allreduce's cached node-block layout: the shrunk
// communicator is a fresh handle whose layout is recomputed lazily, so a
// survivor set straddling a node boundary disables the hierarchical
// algorithm (auto falls back to ring/recursive doubling) while removing a
// whole node block keeps it enabled with one block fewer. A stale cache
// would reduce over a dead rank's node map — exactly the bug this pins out.
func TestShrinkRebuildsHierLayout(t *testing.T) {
	const n = 16 // Perlmutter: 4 GPUs per node -> 4 node blocks of 4
	const elems = 8 << 10
	var mu sync.Mutex
	layouts := map[string]hierLayout{}

	runRanks(t, machine.Perlmutter(), n, func(p *sim.Proc, c *Comm) {
		if hl := c.hierLayout(); !hl.ok || hl.local != 4 || hl.nodes != 4 {
			t.Errorf("world layout = %+v, want ok local=4 nodes=4", hl)
		}

		// Straddling survivors: drop world rank 1, leaving node 0 with three
		// ranks and every other node with four.
		if c.Rank() != 1 {
			straddle := c.ShrinkExcluding(p, map[int]bool{1: true}, 1)
			if c.Rank() == 0 {
				mu.Lock()
				layouts["straddle"] = straddle.hierLayout()
				mu.Unlock()
			}
			// The 64 KiB auto-selected allreduce must still reduce correctly
			// over the survivors — re-checking the algorithm thresholds on
			// the new layout instead of reusing the parent's cache.
			b := gpu.AllocBuffer[float64](c.ep.dev, elems)
			for i := range b.Data() {
				b.Data()[i] = float64(c.Rank() + i%5)
			}
			straddle.Allreduce(p, b.Whole(), b.Whole(), gpu.ReduceSum)
			sum := 0.0 // world ranks 0,2..15
			for r := 0; r < n; r++ {
				if r != 1 {
					sum += float64(r)
				}
			}
			for _, i := range []int{0, 1, elems / 2, elems - 1} {
				want := sum + float64((n-1)*(i%5))
				if got := b.Data()[i]; got != want {
					t.Errorf("straddle allreduce elem %d = %v, want %v", i, got, want)
					break
				}
			}
		}

		// Node-aligned survivors: drop all of node 1 (world ranks 4-7); the
		// block structure survives with one node fewer.
		dead := map[int]bool{4: true, 5: true, 6: true, 7: true}
		if !dead[c.Rank()] {
			aligned := c.ShrinkExcluding(p, dead, 2)
			if c.Rank() == 0 {
				mu.Lock()
				layouts["aligned"] = aligned.hierLayout()
				mu.Unlock()
			}
			b := fbuf(c, float64(c.Rank()))
			aligned.Allreduce(p, b.Whole(), b.Whole(), gpu.ReduceSum)
			want := 0.0
			for r := 0; r < n; r++ {
				if !dead[r] {
					want += float64(r)
				}
			}
			if b.Data()[0] != want {
				t.Errorf("aligned allreduce = %v, want %v", b.Data()[0], want)
			}
		}
	})

	if hl := layouts["straddle"]; hl.ok {
		t.Errorf("straddling survivor set kept a node-block layout: %+v", hl)
	}
	if hl := layouts["aligned"]; !hl.ok || hl.local != 4 || hl.nodes != 3 {
		t.Errorf("node-aligned shrink layout = %+v, want ok local=4 nodes=3", hl)
	}
}

// TestShrinkForcedHierarchicalPanicsOnBrokenLayout documents the explicit-
// algorithm contract after a shrink: forcing AlgHierarchical on a shrunk
// communicator without a regular node-block layout panics instead of
// silently reducing with a stale layout.
func TestShrinkForcedHierarchicalPanicsOnBrokenLayout(t *testing.T) {
	const n = 8 // two node blocks of 4
	runRanks(t, machine.Perlmutter(), n, func(p *sim.Proc, c *Comm) {
		if c.Rank() == 1 {
			return
		}
		sub := c.ShrinkExcluding(p, map[int]bool{1: true}, 1)
		b := gpu.AllocBuffer[float64](c.ep.dev, 64)
		defer func() {
			if recover() == nil {
				t.Errorf("rank %d: forced hierarchical on a straddling shrink did not panic", c.Rank())
			}
		}()
		sub.AllreduceAlg(p, b.Whole(), b.Whole(), gpu.ReduceSum, AlgHierarchical)
		panic(fmt.Sprintf("unreachable: rank %d completed the forced hierarchical allreduce", c.Rank()))
	})
}
