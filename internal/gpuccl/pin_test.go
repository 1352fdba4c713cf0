package gpuccl

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

// pin is the virtual-time record of one collective cell: the time the last
// rank's stream drained, and an FNV-1a digest of every rank's own finish
// time and result elements (in rank order).
type pin struct {
	end sim.Time
	sum uint64
}

// pinOps are the pinned collectives. Each runs once on c and returns the
// buffer holding the rank's result. Sizes straddle the algorithm switches:
// allReduceTreeMax (64 KiB) for AllReduce, and 1 vs 8 pipeline chunks (512 KiB
// each) for Broadcast.
var pinOps = []struct {
	name string
	run  func(p *sim.Proc, c *Comm, s *gpu.Stream) *gpu.Buffer[float64]
}{
	{"allreduce-4KiB", func(p *sim.Proc, c *Comm, s *gpu.Stream) *gpu.Buffer[float64] {
		return pinAllReduce(p, c, s, 4<<10)
	}},
	{"allreduce-64KiB", func(p *sim.Proc, c *Comm, s *gpu.Stream) *gpu.Buffer[float64] {
		return pinAllReduce(p, c, s, allReduceTreeMax)
	}},
	{"allreduce-64KiB+8", func(p *sim.Proc, c *Comm, s *gpu.Stream) *gpu.Buffer[float64] {
		return pinAllReduce(p, c, s, allReduceTreeMax+8)
	}},
	{"allreduce-1MiB", func(p *sim.Proc, c *Comm, s *gpu.Stream) *gpu.Buffer[float64] {
		return pinAllReduce(p, c, s, 1<<20)
	}},
	{"reduce-1MiB", func(p *sim.Proc, c *Comm, s *gpu.Stream) *gpu.Buffer[float64] {
		send, recv := pinBuf(c, 1<<17), pinBuf(c, 1<<17)
		c.Reduce(p, s, send.Whole(), recv.Whole(), gpu.ReduceSum, c.Size()-1)
		return recv
	}},
	{"broadcast-256KiB", func(p *sim.Proc, c *Comm, s *gpu.Stream) *gpu.Buffer[float64] {
		buf := pinBuf(c, 1<<15)
		c.Broadcast(p, s, buf.Whole(), c.Size()-1)
		return buf
	}},
	{"broadcast-4MiB", func(p *sim.Proc, c *Comm, s *gpu.Stream) *gpu.Buffer[float64] {
		buf := pinBuf(c, 1<<19)
		c.Broadcast(p, s, buf.Whole(), 0)
		return buf
	}},
}

func pinAllReduce(p *sim.Proc, c *Comm, s *gpu.Stream, bytes int) *gpu.Buffer[float64] {
	send, recv := pinBuf(c, bytes/8), gpu.AllocBuffer[float64](c.dev, bytes/8)
	c.AllReduce(p, s, send.Whole(), recv.Whole(), gpu.ReduceSum)
	return recv
}

// pinBuf allocates n elements filled with a rank- and index-dependent pattern.
func pinBuf(c *Comm, n int) *gpu.Buffer[float64] {
	b := gpu.AllocBuffer[float64](c.dev, n)
	for i := range b.Data() {
		b.Data()[i] = float64((c.myWorld()+1)*(i%7+1)) + 0.25
	}
	return b
}

// runPin runs op on n Perlmutter ranks (4 per node, so n = 5 and 8 cross
// nodes), on the world communicator or on the child of a Split by world-rank
// parity with reversed keys.
func runPin(t *testing.T, n int, split bool, op func(*sim.Proc, *Comm, *gpu.Stream) *gpu.Buffer[float64]) pin {
	t.Helper()
	ends := make([]sim.Time, n)
	results := make([]*gpu.Buffer[float64], n)
	runRanks(t, machine.Perlmutter(), n, func(p *sim.Proc, c *Comm, s *gpu.Stream) {
		r := c.Rank()
		if split {
			c = c.Split(p, r%2, -r)
		}
		results[r] = op(p, c, s)
		s.Synchronize(p)
		ends[r] = p.Now()
	})
	var out pin
	h := fnv.New64a()
	for r := 0; r < n; r++ {
		if ends[r] > out.end {
			out.end = ends[r]
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(ends[r]))
		h.Write(b[:])
		for _, v := range results[r].Data() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	out.sum = h.Sum64()
	return out
}

// TestPinnedVirtualTimes pins the exact virtual end time and result digest of
// every collective, on the world and on a Split child, at n = 2, 5, 8. The
// constants were captured before the lockstep skeleton was shared with
// GPUSHMEM (internal/lockstep); a schedule change that moves any of them is a
// change of the simulated answer, not a refactor.
func TestPinnedVirtualTimes(t *testing.T) {
	for _, n := range []int{2, 5, 8} {
		for _, split := range []bool{false, true} {
			for _, op := range pinOps {
				group := "world"
				if split {
					group = "split"
				}
				name := fmt.Sprintf("%s/n%d/%s", op.name, n, group)
				got := runPin(t, n, split, op.run)
				if want, ok := pinned[name]; !ok || got != want {
					t.Errorf("%q: {%d, %#x}, // pinned %v", name, got.end, got.sum, want)
				}
			}
		}
	}
}

// pinned holds the constants, keyed "<op>/n<ranks>/<world|split>". At n = 2
// each Split child has one member, so only the launch overhead remains.
var pinned = map[string]pin{
	"allreduce-4KiB/n2/world":    {12939, 0x69ea62bd045c5469},
	"allreduce-64KiB/n2/world":   {13716, 0xde4c795e8dc330d1},
	"allreduce-64KiB+8/n2/world": {17604, 0x339deb39a4391585},
	"allreduce-1MiB/n2/world":    {30038, 0xabd769c5de94c3b9},
	"reduce-1MiB/n2/world":       {30038, 0x2d06eeff02e0dd05},
	"broadcast-256KiB/n2/world":  {16203, 0xf297239001fc6279},
	"broadcast-4MiB/n2/world":    {93152, 0x894278c4a5ef3d2d},
	"allreduce-4KiB/n2/split":    {10200, 0x895e03c8b7b70ce5},
	"allreduce-64KiB/n2/split":   {10200, 0xb4c5c0e0ec2f2f11},
	"allreduce-64KiB+8/n2/split": {10200, 0x37293d5af409f1be},
	"allreduce-1MiB/n2/split":    {10200, 0x77aecb75e8055047},
	"reduce-1MiB/n2/split":       {10200, 0x77aecb75e8055047},
	"broadcast-256KiB/n2/split":  {10200, 0x282d7985a564dce5},
	"broadcast-4MiB/n2/split":    {10200, 0x7799ae5b84502f11},
	"allreduce-4KiB/n5/world":    {25390, 0x7359ea3941cef7af},
	"allreduce-64KiB/n5/world":   {29531, 0x3fa1621d187efd04},
	"allreduce-64KiB+8/n5/world": {80128, 0xc9cd95b6da2dc68b},
	"allreduce-1MiB/n5/world":    {146352, 0x35d4923fc50258d8},
	"reduce-1MiB/n5/world":       {101385, 0xe4fefd9cc604a5a5},
	"broadcast-256KiB/n5/world":  {49986, 0xc3f75dd306e11342},
	"broadcast-4MiB/n5/world":    {283869, 0xdc4e48e30b4983d3},
	"allreduce-4KiB/n5/split":    {27224, 0xd29f6a831ea51386},
	"allreduce-64KiB/n5/split":   {32398, 0x4cac063e2ce73c3c},
	"allreduce-64KiB+8/n5/split": {47236, 0xf4bd8ac9d2ab9fc3},
	"allreduce-1MiB/n5/split":    {102424, 0x13f00ffe9dda814c},
	"reduce-1MiB/n5/split":       {81547, 0xc079d5d372cc6c1f},
	"broadcast-256KiB/n5/split":  {48954, 0xb1c509ad7d9872f6},
	"broadcast-4MiB/n5/split":    {264031, 0x29bced0001f5f682},
	"allreduce-4KiB/n8/world":    {25390, 0x336e33ef4b842a95},
	"allreduce-64KiB/n8/world":   {29531, 0xd9941107427c6ad5},
	"allreduce-64KiB+8/n8/world": {130576, 0x898180bb78f6e8d5},
	"allreduce-1MiB/n8/world":    {203012, 0x1105a73fe1e692e5},
	"reduce-1MiB/n8/world":       {132942, 0xa9c331bac970f5cb},
	"broadcast-256KiB/n8/world":  {83769, 0xc8034126757f42e5},
	"broadcast-4MiB/n8/world":    {315426, 0xed433c374d826d25},
	"allreduce-4KiB/n8/split":    {22651, 0x4b01795f889521a5},
	"allreduce-64KiB/n8/split":   {26015, 0x2c25d56431d9a0d5},
	"allreduce-64KiB+8/n8/split": {64374, 0x651978407aefa175},
	"allreduce-1MiB/n8/split":    {126462, 0xb793ec7538a11535},
	"reduce-1MiB/n8/split":       {92066, 0x5e0e69db3bc357b3},
	"broadcast-256KiB/n8/split":  {56157, 0x6381bbcd453385a5},
	"broadcast-4MiB/n8/split":    {274550, 0xfe1be3d54ad1caa5},
}
