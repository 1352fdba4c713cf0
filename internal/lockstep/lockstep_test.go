package lockstep

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// harness runs body once per rank of an n-rank world group over one Table
// (GPUSHMEM host costs on Perlmutter) and returns the fabric transfer count.
func harness(t *testing.T, n int, body func(p *sim.Proc, tbl *Table, g *Group)) int64 {
	t.Helper()
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, machine.Perlmutter(), n)
	reg := metrics.New()
	cl.SetMetrics(reg)
	tbl := NewTable(cl, machine.LibGPUSHMEM)
	for r := 0; r < n; r++ {
		g := &Group{Size: n, Rank: r}
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) { body(p, tbl, g) })
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var transfers int64
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "fabric.") && strings.HasSuffix(c.Name, ".transfers") {
			transfers += c.Value
		}
	}
	return transfers
}

func TestArriveRunsDataOnceOnLastArriver(t *testing.T) {
	const n = 5
	runs, ranAt := 0, sim.Time(-1)
	left := make([]sim.Time, n)
	harness(t, n, func(p *sim.Proc, tbl *Table, g *Group) {
		p.Advance(sim.Duration(100 * (n - g.Rank))) // rank 0 arrives last
		view := gpu.AllocBuffer[int64](tbl.cl.Devices[g.Rank], 1+g.Rank).Whole()
		tbl.Join(Key{Kind: "once"}, g, machine.APIHost, view, view, func(sends, recvs []gpu.View) {
			runs++
			ranAt = p.Now()
			if g.Rank != 0 {
				t.Errorf("data ran on rank %d, not on the last arriver", g.Rank)
			}
			for r := range sends {
				if sends[r].Len() != 1+r || recvs[r].Len() != 1+r {
					t.Errorf("rank %d's views not registered when data ran", r)
				}
			}
		}).Run(p)
		left[g.Rank] = p.Now()
	})
	if runs != 1 {
		t.Fatalf("data ran %d times", runs)
	}
	for r, at := range left {
		if at != ranAt {
			t.Errorf("rank %d released at %v, data ran at %v", r, at, ranAt)
		}
	}
}

// TestCompletedKeyIsReusable: a key whose call has completed names a fresh
// instance — the second call's data runs once, on its own last arriver — and
// finished walks are recycled, and so is the finished instance: the second
// call takes the first's, so one is left over.
func TestCompletedKeyIsReusable(t *testing.T) {
	var runs []int
	var table *Table
	harness(t, 2, func(p *sim.Proc, tbl *Table, g *Group) {
		table = tbl
		for call := 0; call < 2; call++ {
			p.Advance(sim.Duration(10 * (1 + g.Rank))) // rank 1 arrives last
			tbl.Join(Key{Seq: 7, Kind: "reuse"}, g, machine.APIHost, gpu.View{}, gpu.View{}, func(_, _ []gpu.View) {
				runs = append(runs, g.Rank)
			}).Run(p)
			if len(tbl.insts) != 0 {
				t.Errorf("completed instances left in the table: %d", len(tbl.insts))
			}
		}
		if len(tbl.free) == 0 {
			t.Error("no finished walk was recycled")
		}
	})
	if !slices.Equal(runs, []int{1, 1}) {
		t.Fatalf("data ran on ranks %v, want once per call on the last arriver [1 1]", runs)
	}
	if n := len(table.spare[site{"reuse", 0}]); n != 1 {
		t.Errorf("%d finished instances kept for the call site, want the one both calls shared", n)
	}
}

func TestRoundsSkipsWhatHasNothingToSend(t *testing.T) {
	const n = 4
	// Per round: no peer, the caller itself, past the group's end (the
	// recursive-doubling partner of a non-power-of-two group), no payload.
	steps := []struct {
		peer  func(rank int) int
		bytes int64
	}{
		{func(int) int { return -1 }, 64},
		{func(rank int) int { return rank }, 64},
		{func(rank int) int { return rank + n }, 64},
		{func(rank int) int { return (rank + 1) % n }, 0},
	}
	transfers := harness(t, n, func(p *sim.Proc, tbl *Table, g *Group) {
		tbl.Join(Key{Kind: "skip"}, g, machine.APIHost, gpu.View{}, gpu.View{}, nil).Rounds(len(steps), func(r int) (int, int64) {
			return steps[r].peer(g.Rank), steps[r].bytes
		}).Run(p)
		tbl.Join(Key{Kind: "skip-fan"}, g, machine.APIHost, gpu.View{}, gpu.View{}, nil).FanOut(0, n, 0).Run(p)
		if p.Now() != 0 {
			t.Errorf("rank %d: empty rounds advanced time to %v", g.Rank, p.Now())
		}
	})
	if transfers != 0 {
		t.Fatalf("empty steps booked %d transfers", transfers)
	}
}

func TestRoundEndsAtSlowestTransfer(t *testing.T) {
	const n = 3
	left := make([]sim.Time, n)
	var want sim.Time
	transfers := harness(t, n, func(p *sim.Proc, tbl *Table, g *Group) {
		// A ring of distinct ports, so no transfer queues behind another:
		// rank r sends (r+1) MiB and the 3 MiB one paces everybody.
		bytes := int64(g.Rank+1) << 20
		if g.Rank == n-1 {
			cl := tbl.cl
			cost := cl.Model.Cost(tbl.lib, machine.APIHost, cl.Fabric.PathBetween(g.Rank, 0), bytes)
			want = sim.Time(0).Add(cost.Duration(bytes) + cost.Latency)
		}
		tbl.Join(Key{Kind: "pace"}, g, machine.APIHost, gpu.View{}, gpu.View{}, nil).
			Rounds(1, func(int) (int, int64) { return (g.Rank + 1) % n, bytes }).Run(p)
		left[g.Rank] = p.Now()
	})
	if transfers != n {
		t.Fatalf("booked %d transfers, want %d", transfers, n)
	}
	for r, at := range left {
		if at != want {
			t.Errorf("rank %d left the round at %v, slowest transfer ends at %v", r, at, want)
		}
	}
}

func TestFanOutPostsInOrderAndSkipsSelf(t *testing.T) {
	const n = 4
	left := make([]sim.Time, n)
	transfers := harness(t, n, func(p *sim.Proc, tbl *Table, g *Group) {
		puts := 0
		if g.Rank == 2 { // a broadcast root
			puts = n
		}
		tbl.Join(Key{Kind: "fan"}, g, machine.APIHost, gpu.View{}, gpu.View{}, nil).FanOut(0, puts, 4096).Run(p)
		left[g.Rank] = p.Now()
	})
	if transfers != n-1 {
		t.Fatalf("root booked %d puts, want %d", transfers, n-1)
	}
	if left[0] == 0 || slices.Max(left) != slices.Min(left) {
		t.Fatalf("members left the fan-out at %v", left)
	}
}

func TestPartitionOrdersByKeyThenParentRank(t *testing.T) {
	// A parent whose order is not world order: group ranks 0..4 are world
	// ranks 9, 7, 5, 3, 1.
	parent := &Group{Members: []int{9, 7, 5, 3, 1}, Size: 5, Rank: 3}
	votes := []Vote{{0, 2}, {1, 0}, {0, 1}, {0, 1}, {-1, 0}}
	child := parent.Partition(votes, 0)
	if want := []int{5, 3, 9}; !slices.Equal(child.Members, want) || child.Size != 3 || child.Rank != 1 {
		t.Fatalf("colour 0 child = %+v, want members %v rank 1", child, want)
	}
	if other := parent.Partition(votes, 1); other.Rank != -1 || !slices.Equal(other.Members, []int{7}) {
		t.Fatalf("colour 1 child seen by a colour-0 voter = %+v, want members [7] rank -1", other)
	}
	world := &Group{Size: 3, Rank: 2}
	if c := world.Partition([]Vote{{0, 5}, {0, 5}, {0, -1}}, 0); !slices.Equal(c.Members, []int{2, 0, 1}) || c.Rank != 0 {
		t.Fatalf("identity parent child = %+v, want members [2 0 1] rank 0", c)
	}
}

func TestSurvivorsKeepsOrderAndRejectsDeadCaller(t *testing.T) {
	g := &Group{Members: []int{4, 2, 8, 6}, Size: 4, Rank: 2}
	child := g.Survivors(map[int]bool{2: true, 5: true})
	if want := []int{4, 8, 6}; !slices.Equal(child.Members, want) || child.Size != 3 || child.Rank != 1 {
		t.Fatalf("survivors = %+v, want members %v rank 1", child, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a dead caller shrank its group")
		}
	}()
	g.Survivors(map[int]bool{8: true})
}

func TestLog2Ceil(t *testing.T) {
	for n, want := range map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 4096: 12} {
		if got := Log2Ceil(n); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}
