package gpushmem

import (
	"fmt"
	"testing"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

func TestWorldTeamShape(t *testing.T) {
	launch(t, machine.Perlmutter(), 4, func(p *sim.Proc, pe *PE) {
		wt := pe.WorldTeam()
		if wt.Size() != 4 || wt.Rank() != pe.rank {
			t.Errorf("world team %d/%d for pe %d", wt.Rank(), wt.Size(), pe.rank)
		}
		for r := 0; r < 4; r++ {
			if wt.World(r) != r {
				t.Errorf("world team member %d = %d", r, wt.World(r))
			}
		}
	})
}

// TestWorldTeamBuiltOnce: the world team is one handle per PE, built with the
// world, and its membership is the nil identity table — a 4096-PE job holds
// no per-PE copies of 0..4095 (it used to allocate one per WorldTeam call).
func TestWorldTeamBuiltOnce(t *testing.T) {
	const n = 4096
	eng := sim.NewEngine()
	defer eng.Close()
	w := NewWorld(gpu.NewCluster(eng, machine.Perlmutter(), n))
	for r := 0; r < n; r++ {
		wt := w.PE(r).WorldTeam()
		if wt != w.PE(r).WorldTeam() {
			t.Fatalf("pe %d: WorldTeam returned two handles", r)
		}
		if wt.g.Members != nil {
			t.Fatalf("pe %d: world team carries a private %d-entry member table", r, len(wt.g.Members))
		}
		if wt.Size() != n || wt.Rank() != r || wt.World(r) != r {
			t.Fatalf("pe %d: world team %d/%d, World(%d) = %d", r, wt.Rank(), wt.Size(), r, wt.World(r))
		}
	}
}

func TestTeamSplitMembershipAndOrdering(t *testing.T) {
	const n = 6
	launch(t, machine.Perlmutter(), n, func(p *sim.Proc, pe *PE) {
		wt := pe.WorldTeam()
		// Reverse ordering by key within each parity class.
		team := wt.TeamSplit(p, pe.rank%2, -pe.rank)
		if team.Size() != 3 {
			t.Errorf("team size = %d", team.Size())
		}
		// Keys are -world: the highest world rank gets team rank 0.
		wantRank := (n - 1 - pe.rank) / 2
		if team.Rank() != wantRank {
			t.Errorf("pe %d team rank = %d, want %d", pe.rank, team.Rank(), wantRank)
		}
		// Membership covers exactly the parity class.
		seen := map[int]bool{}
		for r := 0; r < team.Size(); r++ {
			seen[team.World(r)] = true
		}
		for wr := pe.rank % 2; wr < n; wr += 2 {
			if !seen[wr] {
				t.Errorf("pe %d team missing member %d", pe.rank, wr)
			}
		}
	})
}

func TestTeamSplitNoColor(t *testing.T) {
	launch(t, machine.Perlmutter(), 3, func(p *sim.Proc, pe *PE) {
		wt := pe.WorldTeam()
		color := 0
		if pe.rank == 1 {
			color = -1
		}
		team := wt.TeamSplit(p, color, pe.rank)
		if pe.rank == 1 {
			if team != nil {
				t.Error("no-color PE received a team")
			}
			return
		}
		if team.Size() != 2 {
			t.Errorf("team size = %d", team.Size())
		}
	})
}

func TestTeamCollectivesIsolated(t *testing.T) {
	// Two teams run allreduces concurrently; sums must not mix.
	const n = 4
	launch(t, machine.Perlmutter(), n, func(p *sim.Proc, pe *PE) {
		team := pe.WorldTeam().TeamSplit(p, pe.rank%2, pe.rank)
		s := deviceOf(pe).DefaultStream()
		buf := gpu.AllocBuffer[float64](deviceOf(pe), 1)
		buf.Data()[0] = float64(pe.rank + 1)
		team.AllReduceOnStream(p, s, buf.Whole(), buf.Whole(), gpu.ReduceSum)
		s.Synchronize(p)
		want := map[int]float64{0: 1 + 3, 1: 2 + 4}[pe.rank%2]
		if buf.Data()[0] != want {
			t.Errorf("pe %d team allreduce = %v, want %v", pe.rank, buf.Data()[0], want)
		}
	})
}

func TestTeamBroadcastAndBarrier(t *testing.T) {
	const n = 4
	launch(t, machine.MareNostrum5(), n, func(p *sim.Proc, pe *PE) {
		team := pe.WorldTeam().TeamSplit(p, pe.rank/2, pe.rank)
		s := deviceOf(pe).DefaultStream()
		buf := gpu.AllocBuffer[int64](deviceOf(pe), 2)
		if team.Rank() == 1 { // the higher world rank of the pair
			buf.Data()[0], buf.Data()[1] = 7, 9
		}
		team.BroadcastOnStream(p, s, buf.Whole(), 1)
		team.BarrierOnStream(p, s)
		s.Synchronize(p)
		if buf.Data()[0] != 7 || buf.Data()[1] != 9 {
			t.Errorf("pe %d broadcast = %v", pe.rank, buf.Data())
		}
	})
}

func TestTeamAllGatherv(t *testing.T) {
	const n = 4
	launch(t, machine.Perlmutter(), n, func(p *sim.Proc, pe *PE) {
		team := pe.WorldTeam().TeamSplit(p, pe.rank%2, pe.rank)
		counts := []int{2, 2}
		displs := []int{0, 2}
		s := deviceOf(pe).DefaultStream()
		send := gpu.AllocBuffer[float64](deviceOf(pe), 2)
		send.Data()[0] = float64(100 * pe.rank)
		send.Data()[1] = float64(100*pe.rank + 1)
		recv := gpu.AllocBuffer[float64](deviceOf(pe), 4)
		team.AllGathervOnStream(p, s, send.Whole(), recv.Whole(), counts, displs)
		s.Synchronize(p)
		// Team member 0 is the lower world rank of the parity class.
		base := pe.rank % 2
		for tr := 0; tr < 2; tr++ {
			wr := base + 2*tr
			if recv.Data()[2*tr] != float64(100*wr) {
				t.Errorf("pe %d recv[%d] = %v", pe.rank, 2*tr, recv.Data()[2*tr])
			}
		}
	})
}

func TestNestedTeamSplit(t *testing.T) {
	const n = 8
	launch(t, machine.Perlmutter(), n, func(p *sim.Proc, pe *PE) {
		half := pe.WorldTeam().TeamSplit(p, pe.rank/4, pe.rank)
		quarter := half.TeamSplit(p, half.Rank()/2, half.Rank())
		if quarter.Size() != 2 {
			t.Fatalf("quarter size = %d", quarter.Size())
		}
		s := deviceOf(pe).DefaultStream()
		buf := gpu.AllocBuffer[float64](deviceOf(pe), 1)
		buf.Data()[0] = float64(pe.rank)
		quarter.AllReduceOnStream(p, s, buf.Whole(), buf.Whole(), gpu.ReduceSum)
		s.Synchronize(p)
		// Pairs are (0,1),(2,3),(4,5),(6,7): sum = 2*even + 1.
		pair := pe.rank / 2 * 2
		if want := float64(pair + pair + 1); buf.Data()[0] != want {
			t.Errorf("pe %d nested allreduce = %v, want %v", pe.rank, buf.Data()[0], want)
		}
	})
}

func TestTeamSplitOrderingRequirement(t *testing.T) {
	// Sanity: split rendezvous keys are per parent team, so splits on
	// different parents in the same program order do not cross-talk.
	const n = 4
	launch(t, machine.Perlmutter(), n, func(p *sim.Proc, pe *PE) {
		a := pe.WorldTeam().TeamSplit(p, 0, pe.rank)
		b := a.TeamSplit(p, pe.rank%2, pe.rank)
		if a.Size() != n || b.Size() != n/2 {
			t.Errorf("sizes %d %d", a.Size(), b.Size())
		}
		_ = fmt.Sprintf("%d", b.Rank())
	})
}
