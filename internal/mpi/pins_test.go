package mpi

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// updateCollPins rewrites testdata/coll_pins.golden from the current code:
//
//	go test ./internal/mpi -run TestCollectivePins -args -update-coll-pins
//
// Only a deliberate change of the simulated model may do that; a change meant
// to make the simulator faster must replay the file byte for byte.
var updateCollPins = flag.Bool("update-coll-pins", false, "rewrite testdata/coll_pins.golden")

// The pinned grid: every collective on every topology at rank counts that
// cover one node, a partial node, non-powers of two and the 64-rank cells of
// the benchmark, at one size under and one over the eager limit (8 KiB). The
// rendezvous size is also past the ring and hierarchical crossovers, so
// AlgAuto takes each of its three branches somewhere in the grid.
var (
	pinTopologies = []fabric.TopologyConfig{{Kind: fabric.TopoFlat}, {Kind: fabric.TopoFatTree}, {Kind: fabric.TopoDragonfly}}
	pinRanks      = []int{2, 3, 5, 8, 13, 16, 64}
	pinElems      = []struct {
		name  string
		elems int
	}{{"eager", 128}, {"rendezvous", 8192}}
)

// pinModel is Perlmutter (4 GPUs per node) on the given topology.
func pinModel(tc fabric.TopologyConfig) *machine.Model {
	m := *machine.Perlmutter()
	m.Topology = tc
	return &m
}

// pinStep is one collective of the pinned sequence. ok reports whether the
// call's preconditions hold on this communicator (forced algorithms only).
type pinStep struct {
	name string
	ok   func(c *Comm, elems int) bool
	run  func(p *sim.Proc, c *Comm, elems int)
}

func pinVec(c *Comm, n int) gpu.View { return gpu.Alloc[float64](c.ep.dev, n, gpu.Phantom).Whole() }

func pinAllreduce(alg AllreduceAlg) func(p *sim.Proc, c *Comm, elems int) {
	return func(p *sim.Proc, c *Comm, elems int) {
		c.AllreduceAlg(p, pinVec(c, elems), pinVec(c, elems), gpu.ReduceSum, alg)
	}
}

// pinVarCounts gives rank r a share of (r%3+1)*elems/4 elements, so the
// vector collectives see unequal contributions.
func pinVarCounts(n, elems int) (counts, displs []int) {
	counts = make([]int, n)
	for r := range counts {
		counts[r] = (r%3 + 1) * elems / 4
	}
	return counts, prefixSums(counts)
}

func pinSequence() []pinStep {
	always := func(*Comm, int) bool { return true }
	return []pinStep{
		{"barrier", always, func(p *sim.Proc, c *Comm, _ int) { c.Barrier(p) }},
		{"bcast", always, func(p *sim.Proc, c *Comm, elems int) { c.Bcast(p, pinVec(c, elems), c.Size()/2) }},
		{"reduce", always, func(p *sim.Proc, c *Comm, elems int) {
			c.Reduce(p, pinVec(c, elems), pinVec(c, elems), gpu.ReduceSum, c.Size()-1)
		}},
		{"allreduce-rd", always, pinAllreduce(AlgRecursiveDoubling)},
		{"allreduce-ring", func(c *Comm, elems int) bool { return elems >= c.Size() }, pinAllreduce(AlgRing)},
		{"allreduce-hierarchical", func(c *Comm, elems int) bool {
			hl := c.hierLayout()
			return hl.ok && elems >= hl.local
		}, pinAllreduce(AlgHierarchical)},
		{"allreduce-auto", always, pinAllreduce(AlgAuto)},
		{"gather", always, func(p *sim.Proc, c *Comm, elems int) {
			counts, displs := uniform(c.Size(), elems)
			c.Gatherv(p, pinVec(c, elems), pinVec(c, elems*c.Size()), counts, displs, 0)
		}},
		{"gatherv", always, func(p *sim.Proc, c *Comm, elems int) {
			counts, displs := pinVarCounts(c.Size(), elems)
			c.Gatherv(p, pinVec(c, counts[c.Rank()]), pinVec(c, displs[c.Size()-1]+counts[c.Size()-1]), counts, displs, 1%c.Size())
		}},
		{"scatter", always, func(p *sim.Proc, c *Comm, elems int) {
			counts, displs := uniform(c.Size(), elems)
			c.Scatterv(p, pinVec(c, elems*c.Size()), pinVec(c, elems), counts, displs, 0)
		}},
		{"scatterv", always, func(p *sim.Proc, c *Comm, elems int) {
			counts, displs := pinVarCounts(c.Size(), elems)
			c.Scatterv(p, pinVec(c, displs[c.Size()-1]+counts[c.Size()-1]), pinVec(c, counts[c.Rank()]), counts, displs, c.Size()-1)
		}},
		{"allgather", always, func(p *sim.Proc, c *Comm, elems int) {
			c.allgather(p, pinVec(c, elems), pinVec(c, elems*c.Size()))
		}},
		{"allgatherv", always, func(p *sim.Proc, c *Comm, elems int) {
			counts, displs := pinVarCounts(c.Size(), elems)
			c.Allgatherv(p, pinVec(c, counts[c.Rank()]), pinVec(c, displs[c.Size()-1]+counts[c.Size()-1]), counts, displs)
		}},
		{"alltoall", always, func(p *sim.Proc, c *Comm, elems int) {
			c.Alltoall(p, pinVec(c, elems*c.Size()), pinVec(c, elems*c.Size()), elems)
		}},
		{"alltoallv", always, func(p *sim.Proc, c *Comm, elems int) {
			// Rank r sends counts[d] elements to d and receives counts[r] from everyone.
			n := c.Size()
			counts, displs := pinVarCounts(n, elems)
			recvCounts := make([]int, n)
			for i := range recvCounts {
				recvCounts[i] = counts[c.Rank()]
			}
			c.Alltoallv(p, pinVec(c, displs[n-1]+counts[n-1]), pinVec(c, n*counts[c.Rank()]),
				counts, displs, recvCounts, prefixSums(recvCounts))
		}},
	}
}

// finishDigest hashes the per-rank finish times; -1 marks a rank that did not
// reach the point (killed).
func finishDigest(times []sim.Time) string {
	h := sha256.New()
	end := sim.Time(0)
	for _, t := range times {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(t))
		h.Write(b[:])
		end = max(end, t)
	}
	return fmt.Sprintf("last=%d ranks=%x", end, h.Sum(nil)[:8])
}

// pinCell runs the whole collective sequence, then a Split and two
// collectives on the child, in one engine: every call starts from the skew
// the previous one left, as in an application. It returns one line per call.
func pinCell(t *testing.T, tc fabric.TopologyConfig, n int, size string, elems int) []string {
	t.Helper()
	seq := pinSequence()
	finish := make([][]sim.Time, len(seq)+2)
	for i := range finish {
		finish[i] = make([]sim.Time, n)
	}
	skipped := make([]bool, len(seq))
	eng := sim.NewEngine()
	defer eng.Close()
	w := NewWorld(gpu.NewCluster(eng, pinModel(tc), n))
	for r := 0; r < n; r++ {
		c := w.CommWorld(r)
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			for i, st := range seq {
				if !st.ok(c, elems) {
					skipped[i] = true
					continue
				}
				st.run(p, c, elems)
				finish[i][c.Rank()] = p.Now()
			}
			// Odd/even split, reverse key order; the child runs an auto
			// allreduce and a barrier.
			child := c.Split(p, c.Rank()%2, -c.Rank())
			finish[len(seq)][c.Rank()] = p.Now()
			child.Allreduce(p, pinVec(c, elems), pinVec(c, elems), gpu.ReduceSum)
			child.Barrier(p)
			finish[len(seq)+1][c.Rank()] = p.Now()
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("%s n=%d %s: %v", tc.Kind, n, size, err)
	}
	key := fmt.Sprintf("%s/n=%d/%s/", tc.Kind, n, size)
	var lines []string
	for i, st := range seq {
		if skipped[i] {
			lines = append(lines, key+st.name+" n/a")
			continue
		}
		lines = append(lines, key+st.name+" "+finishDigest(finish[i]))
	}
	lines = append(lines, key+"split "+finishDigest(finish[len(seq)]))
	lines = append(lines, key+"split-child-allreduce-barrier "+finishDigest(finish[len(seq)+1]))
	return append(lines, fmt.Sprintf("%send %d", key, eng.Now()))
}

// pinFaulted runs iters allreduces of each forced algorithm (plus a barrier)
// on 8 ranks over 2 nodes with arm's faults installed on the fabric.
func pinFaulted(t *testing.T, name string, tc fabric.TopologyConfig, elems int, arm func(f *fabric.Fabric)) string {
	t.Helper()
	const n, iters = 8, 3
	finish := make([]sim.Time, n)
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, pinModel(tc), n)
	arm(cl.Fabric)
	w := NewWorld(cl)
	for r := 0; r < n; r++ {
		c := w.CommWorld(r)
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			for it := 0; it < iters; it++ {
				for _, alg := range []AllreduceAlg{AlgRecursiveDoubling, AlgRing, AlgHierarchical, AlgAuto} {
					c.AllreduceAlg(p, pinVec(c, elems), pinVec(c, elems), gpu.ReduceSum, alg)
				}
				c.Barrier(p)
			}
			finish[c.Rank()] = p.Now()
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return fmt.Sprintf("%s %s failovers=%d end=%d", name, finishDigest(finish), cl.Fabric.FailoverTransfers(), eng.Now())
}

// pinKilledRank is the recovery loop of `uniconn chaos -recover` at the MPI
// layer: eight ranks run real-valued allreduces under sim.Protect, rank 3 is
// killed mid-allreduce, the detector interrupts everyone a lease later, and
// the survivors shrink the world and finish on the child. The sums prove the
// shrunk communicator reduces over exactly the survivors.
func pinKilledRank(t *testing.T, tc fabric.TopologyConfig, elems int) string {
	t.Helper()
	const n, after, victim = 8, 3, 3
	finish := make([]sim.Time, n)
	sums := make([]float64, n)
	procs := make([]*sim.Proc, n)
	eng := sim.NewEngine()
	defer eng.Close()
	w := NewWorld(gpu.NewCluster(eng, pinModel(tc), n))
	for r := 0; r < n; r++ {
		c := w.CommWorld(r)
		procs[r] = eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			finish[c.Rank()] = -1
			b := gpu.AllocBuffer[float64](c.ep.dev, elems)
			fill := func() {
				for i := range b.Data() {
					b.Data()[i] = float64(c.Rank() + 1)
				}
			}
			// Allreduce on the world until the failure is delivered: with the
			// victim gone every survivor blocks within an iteration of it.
			var rf *sim.RankFailedError
			for rf == nil {
				fill()
				err := sim.Protect(func() { c.Allreduce(p, b.Whole(), b.Whole(), gpu.ReduceSum) })
				if err != nil && !errors.As(err, &rf) {
					t.Errorf("rank %d: %v", c.Rank(), err)
					return
				}
			}
			p.ClearInterrupt()
			sub := c.ShrinkExcluding(p, map[int]bool{rf.Rank: true}, 1)
			for it := 0; it < after; it++ {
				fill()
				sub.Allreduce(p, b.Whole(), b.Whole(), gpu.ReduceSum)
			}
			finish[c.Rank()], sums[c.Rank()] = p.Now(), b.Data()[elems-1]
		})
	}
	// The second allreduce is in flight at 30 us on every topology.
	eng.After(30*sim.Microsecond, func() { procs[victim].Kill() })
	eng.After(130*sim.Microsecond, func() {
		eng.InterruptAll(&sim.RankFailedError{Rank: victim, At: eng.Now()})
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("killed rank on %s: %v", tc.Kind, err)
	}
	for r, s := range sums {
		if want := float64(n*(n+1)/2 - (victim + 1)); r != victim && s != want {
			t.Errorf("rank %d finished with sum %v, want %v over the survivors", r, s, want)
		}
	}
	if finish[victim] != -1 {
		t.Errorf("the victim finished at %v", finish[victim])
	}
	return fmt.Sprintf("killed-rank/%s/elems=%d %s end=%d", tc.Kind, elems, finishDigest(finish), eng.Now())
}

func collectivePins(t *testing.T) []string {
	var lines []string
	for _, tc := range pinTopologies {
		for _, n := range pinRanks {
			for _, sz := range pinElems {
				lines = append(lines, pinCell(t, tc, n, sz.name, sz.elems)...)
			}
		}
	}
	for _, tc := range pinTopologies {
		for _, sz := range pinElems {
			key := fmt.Sprintf("%s/%s", tc.Kind, sz.name)
			// The healthy run of the same program, so the file itself shows
			// that each fault below moved the answer.
			lines = append(lines, pinFaulted(t, "healthy/"+key, tc, sz.elems, func(*fabric.Fabric) {}))
			// Node 0's NIC flaps twice while inter-node traffic is in flight:
			// eager transfers are pushed past the window, rendezvous ones are
			// rejected and retried with backoff.
			lines = append(lines, pinFaulted(t, "nic-stall/"+key, tc, sz.elems, func(f *fabric.Fabric) {
				f.StallNIC(0, 0, sim.Time(20*sim.Microsecond), sim.Time(90*sim.Microsecond))
				f.StallNIC(0, 0, sim.Time(200*sim.Microsecond), sim.Time(260*sim.Microsecond))
			}))
			// One NVLink pair and one NIC route die mid-run and fail over to
			// their fallback routes; on a switched topology an inter-switch
			// link dies too and adaptive routing steers around it.
			lines = append(lines, pinFaulted(t, "down-link/"+key, tc, sz.elems, func(f *fabric.Fabric) {
				f.DownLink(0, 1, fabric.PathIntra, sim.Time(15*sim.Microsecond))
				f.DownLink(3, 4, fabric.PathInter, sim.Time(40*sim.Microsecond))
				f.DownLink(-1, 0, fabric.PathInter, sim.Time(150*sim.Microsecond))
			}))
		}
	}
	for _, tc := range pinTopologies {
		for _, sz := range pinElems {
			lines = append(lines, pinKilledRank(t, tc, sz.elems))
		}
	}
	return lines
}

// TestCollectivePins replays testdata/coll_pins.golden byte for byte: the
// per-rank finish times (digested) and the last finish of every collective,
// of Split and of collectives on the child, over pinRanks x two sizes x
// three topologies, then the faulted cells: NIC stall windows, downed links
// with failover, and a rank killed mid-allreduce with shrink-and-continue
// recovery. The file was captured at 20658a5, before MPI's blocking
// exchanges became scripts (DESIGN.md §5.3).
func TestCollectivePins(t *testing.T) {
	path := filepath.Join("testdata", "coll_pins.golden")
	got := []byte(strings.Join(collectivePins(t), "\n") + "\n")
	if *updateCollPins {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d pinned lines, want %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("pin drifted:\n got  %s\n want %s", gl[i], wl[i])
		}
	}
}
