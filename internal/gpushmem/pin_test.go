package gpushmem

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// pin is the virtual-time record of one barrier → allreduce → broadcast →
// allgatherv sequence: the time the last PE finished each of the four, and an
// FNV-1a digest of every PE's own four finish times and result elements.
type pin struct {
	ends [4]sim.Time
	sum  uint64
}

// pinColl is the four-collective surface shared by the PE-level host API and a
// Team, so one sequence drives both.
type pinColl struct {
	rank, size int
	barrier    func(p *sim.Proc, s *gpu.Stream)
	allReduce  func(p *sim.Proc, s *gpu.Stream, send, recv gpu.View)
	broadcast  func(p *sim.Proc, s *gpu.Stream, buf gpu.View, root int)
	allGatherv func(p *sim.Proc, s *gpu.Stream, send, recv gpu.View, counts, displs []int)
}

func pinPE(pe *PE) pinColl {
	return pinColl{pe.rank, pe.size(), pe.world.BarrierOnStream,
		func(p *sim.Proc, s *gpu.Stream, send, recv gpu.View) {
			pe.AllReduceOnStream(p, s, send, recv, gpu.ReduceSum)
		}, pe.world.BroadcastOnStream, pe.AllGathervOnStream}
}

func pinTeam(t *Team) pinColl {
	return pinColl{t.Rank(), t.Size(), t.BarrierOnStream,
		func(p *sim.Proc, s *gpu.Stream, send, recv gpu.View) {
			t.AllReduceOnStream(p, s, send, recv, gpu.ReduceSum)
		}, t.BroadcastOnStream, t.AllGathervOnStream}
}

// pinDev runs the sequence from inside one collectively launched kernel; the
// stream arguments are unused and every finish time is the kernel's clock.
func pinDev(pe *PE, kc *gpu.KernelCtx) pinColl {
	return pinColl{pe.rank, pe.size(),
		func(*sim.Proc, *gpu.Stream) { pe.DevBarrierAll(kc) },
		func(_ *sim.Proc, _ *gpu.Stream, send, recv gpu.View) {
			pe.DevAllReduce(kc, send, recv, gpu.ReduceSum)
		},
		func(_ *sim.Proc, _ *gpu.Stream, buf gpu.View, root int) { pe.DevBroadcast(kc, buf, root) },
		func(_ *sim.Proc, _ *gpu.Stream, send, recv gpu.View, counts, displs []int) {
			pe.DevAllGatherv(kc, send, recv, counts, displs)
		}}
}

// pinFill allocates n elements with a PE- and index-dependent pattern.
func pinFill(pe *PE, n int) *gpu.Buffer[float64] {
	b := gpu.AllocBuffer[float64](deviceOf(pe), n)
	for i := range b.Data() {
		b.Data()[i] = float64((pe.rank+1)*(i%7+1)) + 0.25
	}
	return b
}

// pinSequence runs the four collectives over elems-element payloads (the
// allgatherv contributes elems+rank elements per member), calling sync after
// each and recording the caller's clock. It returns the three result buffers.
func pinSequence(p *sim.Proc, pe *PE, c pinColl, elems int, sync func() sim.Time, ends *[4]sim.Time) []*gpu.Buffer[float64] {
	var s *gpu.Stream
	if p != nil {
		s = deviceOf(pe).DefaultStream()
	}
	c.barrier(p, s)
	ends[0] = sync()
	red := gpu.AllocBuffer[float64](deviceOf(pe), elems)
	c.allReduce(p, s, pinFill(pe, elems).Whole(), red.Whole())
	ends[1] = sync()
	bc := pinFill(pe, elems)
	c.broadcast(p, s, bc.Whole(), c.size-1)
	ends[2] = sync()
	counts, displs, total := make([]int, c.size), make([]int, c.size), 0
	for r := range counts {
		counts[r], displs[r] = elems+r, total
		total += counts[r]
	}
	ag := gpu.AllocBuffer[float64](deviceOf(pe), total)
	c.allGatherv(p, s, pinFill(pe, counts[c.rank]).Whole(), ag.Whole(), counts, displs)
	ends[3] = sync()
	return []*gpu.Buffer[float64]{red, bc, ag}
}

// runPin runs the sequence at one level on n Perlmutter PEs (4 per node):
// "pe-host" through the PE's *OnStream methods (the world team's for barrier
// and broadcast, which have no PE-level form), "pe-dev" through the Dev*
// methods under CollectiveLaunch, "world-team" through pe.WorldTeam(), and
// "child" through a TeamSplit of six PEs into {2,1,0} (one node) and {5,4,3}
// (two nodes) — keys are reversed so team order differs from world order.
func runPin(t *testing.T, level string, n, elems int) pin {
	t.Helper()
	ends := make([][4]sim.Time, n)
	results := make([][]*gpu.Buffer[float64], n)
	launch(t, machine.Perlmutter(), n, func(p *sim.Proc, pe *PE) {
		r := pe.rank
		s := deviceOf(pe).DefaultStream()
		hostSync := func() sim.Time { s.Synchronize(p); return p.Now() }
		switch level {
		case "pe-host":
			results[r] = pinSequence(p, pe, pinPE(pe), elems, hostSync, &ends[r])
		case "world-team":
			results[r] = pinSequence(p, pe, pinTeam(pe.WorldTeam()), elems, hostSync, &ends[r])
		case "child":
			child := pe.WorldTeam().TeamSplit(p, r/3, -r)
			results[r] = pinSequence(p, pe, pinTeam(child), elems, hostSync, &ends[r])
		case "pe-dev":
			k := &gpu.Kernel{Name: "pin", Body: func(kc *gpu.KernelCtx) {
				results[r] = pinSequence(nil, pe, pinDev(pe, kc), elems, kc.P.Now, &ends[r])
			}}
			pe.CollectiveLaunch(p, s, k, nil)
			s.Synchronize(p)
		}
	})
	var out pin
	h := fnv.New64a()
	var b [8]byte
	for r := 0; r < n; r++ {
		for i, e := range ends[r] {
			if e > out.ends[i] {
				out.ends[i] = e
			}
			binary.LittleEndian.PutUint64(b[:], uint64(e))
			h.Write(b[:])
		}
		for _, buf := range results[r] {
			for _, v := range buf.Data() {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	out.sum = h.Sum64()
	return out
}

// TestPinnedVirtualTimes pins the exact virtual finish times and result
// digest of the four collectives at every level, intra-node (n = 2) and
// inter-node (n = 6), at 8 B, 4 KiB and 1 MiB. The constants were captured
// while the PE-level and team-level collectives were separate copies, before
// both moved onto internal/lockstep; a schedule change that moves any of them
// is a change of the simulated answer, not a refactor. The world is a team:
// the "pe-host" and "world-team" rows must also equal each other.
func TestPinnedVirtualTimes(t *testing.T) {
	for _, elems := range []int{1, 512, 1 << 17} {
		for _, n := range []int{2, 6} {
			got := map[string]pin{}
			for _, level := range []string{"pe-host", "pe-dev", "world-team", "child"} {
				if level == "child" && n != 6 {
					continue
				}
				name := fmt.Sprintf("%s/n%d/%dB", level, n, 8*elems)
				got[level] = runPin(t, level, n, elems)
				if want, ok := pinned[name]; !ok || got[level] != want {
					g := got[level]
					t.Errorf("%q: {[4]sim.Time{%d, %d, %d, %d}, %#x}, // pinned %v",
						name, g.ends[0], g.ends[1], g.ends[2], g.ends[3], g.sum, want)
				}
			}
			if got["pe-host"] != got["world-team"] {
				t.Errorf("n=%d %d B: PE-level %v != world team %v", n, 8*elems, got["pe-host"], got["world-team"])
			}
		}
	}
}

// pinned holds the constants, keyed "<level>/n<PEs>/<payload bytes>B".
var pinned = map[string]pin{
	"pe-host/n2/8B":          {[4]sim.Time{10156, 20312, 30468, 40624}, 0xd48ad698952d6189},
	"pe-dev/n2/8B":           {[4]sim.Time{8669, 11838, 15007, 18176}, 0xd08c8ba59eadc6b1},
	"world-team/n2/8B":       {[4]sim.Time{10156, 20312, 30468, 40624}, 0xd48ad698952d6189},
	"pe-host/n6/8B":          {[4]sim.Time{23870, 43712, 64432, 89276}, 0x3a1f8dc67876a4f1},
	"pe-dev/n6/8B":           {[4]sim.Time{21677, 33354, 47710, 67111}, 0x3d76613c082cd879},
	"world-team/n6/8B":       {[4]sim.Time{23870, 43712, 64432, 89276}, 0x3a1f8dc67876a4f1},
	"child/n6/8B":            {[4]sim.Time{19300, 35306, 50326, 65346}, 0x79a7d388fe3bc709},
	"pe-host/n2/4096B":       {[4]sim.Time{10156, 20369, 30582, 40795}, 0xcb8dad53074ec4dd},
	"pe-dev/n2/4096B":        {[4]sim.Time{8669, 11901, 15133, 18366}, 0x3288bca877df3821},
	"world-team/n2/4096B":    {[4]sim.Time{10156, 20369, 30582, 40795}, 0xcb8dad53074ec4dd},
	"pe-host/n6/4096B":       {[4]sim.Time{23870, 44003, 65431, 90788}, 0x1f0070f794e04525},
	"pe-dev/n6/4096B":        {[4]sim.Time{21677, 33666, 48766, 68741}, 0xd1147b92a9d7ca65},
	"world-team/n6/4096B":    {[4]sim.Time{23870, 44003, 65431, 90788}, 0x1f0070f794e04525},
	"child/n6/4096B":         {[4]sim.Time{19300, 35540, 50914, 66290}, 0x95ea26b90a151f2},
	"pe-host/n2/1048576B":    {[4]sim.Time{10156, 34998, 59840, 84682}, 0x64b1ec6aaf81c615},
	"pe-dev/n2/1048576B":     {[4]sim.Time{8669, 28070, 47471, 66872}, 0x8e17a3e8e3b29a45},
	"world-team/n2/1048576B": {[4]sim.Time{10156, 34998, 59840, 84682}, 0x64b1ec6aaf81c615},
	"pe-host/n6/1048576B":    {[4]sim.Time{23870, 118674, 321754, 573279}, 0x336d49205fc5c641},
	"pe-dev/n6/1048576B":     {[4]sim.Time{21677, 113480, 318484, 574139}, 0xee859b8cefaa2875},
	"world-team/n6/1048576B": {[4]sim.Time{23870, 118674, 321754, 573279}, 0x336d49205fc5c641},
	"child/n6/1048576B":      {[4]sim.Time{19300, 95582, 201782, 307982}, 0x22858260ad982311},
}
