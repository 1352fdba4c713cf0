package mpi

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// runRanks spawns one process per rank and runs the simulation to completion,
// failing the test on deadlock or panic. It returns the cluster so callers
// can audit its arena.
func runRanks(t *testing.T, model *machine.Model, n int, body func(p *sim.Proc, c *Comm)) *gpu.Cluster {
	t.Helper()
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, model, n)
	w := NewWorld(cl)
	for r := 0; r < n; r++ {
		c := w.CommWorld(r)
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) { body(p, c) })
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return cl
}

func fbuf(c *Comm, vals ...float64) *gpu.Buffer[float64] {
	b := gpu.AllocBuffer[float64](c.ep.dev, len(vals))
	copy(b.Data(), vals)
	return b
}

// sendrecv is the blocking pairwise exchange the collectives run on their
// handle's one exchange.
func sendrecv(p *sim.Proc, c *Comm, sendBuf gpu.View, dst, sendTag int, recvBuf gpu.View, src, recvTag int) Status {
	c.x.sendrecv(sendBuf, dst, sendTag, recvBuf, src, recvTag)
	return c.exchange(p)
}

// uniform is the counts and displacements of n equal chunks of k elements.
func uniform(n, k int) (counts, displs []int) {
	counts = make([]int, n)
	for i := range counts {
		counts[i] = k
	}
	return counts, prefixSums(counts)
}

func TestSendRecvEager(t *testing.T) {
	runRanks(t, machine.Perlmutter(), 2, func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			b := fbuf(c, 1, 2, 3)
			c.Send(p, b.Whole(), 1, 7)
			// Eager: the send buffer is reusable immediately.
			b.Data()[0] = 99
		} else {
			b := gpu.AllocBuffer[float64](c.ep.dev, 3)
			st := c.Recv(p, b.Whole(), 0, 7)
			if st.source != 0 || st.tag != 7 || st.count != 3 {
				t.Errorf("status = %+v", st)
			}
			if b.Data()[0] != 1 || b.Data()[2] != 3 {
				t.Errorf("recv data = %v", b.Data())
			}
		}
	})
}

func TestSendRecvRendezvous(t *testing.T) {
	const n = 1 << 16 // 512 KiB of float64 > eager threshold
	runRanks(t, machine.Perlmutter(), 2, func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			b := gpu.AllocBuffer[float64](c.ep.dev, n)
			for i := range b.Data() {
				b.Data()[i] = float64(i)
			}
			c.Send(p, b.Whole(), 1, 0)
		} else {
			b := gpu.AllocBuffer[float64](c.ep.dev, n)
			c.Recv(p, b.Whole(), 0, 0)
			for _, i := range []int{0, 1, n/2 + 3, n - 1} {
				if b.Data()[i] != float64(i) {
					t.Errorf("b[%d] = %v", i, b.Data()[i])
				}
			}
		}
	})
}

func TestRendezvousSlowerThanEagerPerByte(t *testing.T) {
	// Latency just below vs just above the eager threshold should jump by
	// roughly the rendezvous overhead.
	lat := func(bytes int) sim.Duration {
		var d sim.Duration
		runRanks(t, machine.Perlmutter(), 2, func(p *sim.Proc, c *Comm) {
			n := bytes / 8
			b := gpu.AllocBuffer[float64](c.ep.dev, n)
			if c.Rank() == 0 {
				start := p.Now()
				c.Send(p, b.Whole(), 1, 0)
				c.Recv(p, b.Whole(), 1, 1)
				d = p.Now().Sub(start)
			} else {
				c.Recv(p, b.Whole(), 0, 0)
				c.Send(p, b.Whole(), 0, 1)
			}
		})
		return d
	}
	below := lat(8 << 10)
	above := lat((8 << 10) + 8)
	rdv := machine.Perlmutter().Profile(machine.LibMPI, machine.APIHost).RendezvousOverhead
	if above-below < sim.Duration(float64(rdv)*1.5) { // both directions pay it
		t.Fatalf("rendezvous knee too small: below=%v above=%v", below, above)
	}
}

func TestUnexpectedMessageQueue(t *testing.T) {
	runRanks(t, machine.Perlmutter(), 2, func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			b := fbuf(c, 42)
			c.Send(p, b.Whole(), 1, 5)
		} else {
			// Delay posting so the message lands unexpected.
			p.Advance(sim.Second)
			b := gpu.AllocBuffer[float64](c.ep.dev, 1)
			st := c.Recv(p, b.Whole(), 0, 5)
			if b.Data()[0] != 42 || st.count != 1 {
				t.Errorf("data=%v status=%+v", b.Data(), st)
			}
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	runRanks(t, machine.Perlmutter(), 3, func(p *sim.Proc, c *Comm) {
		switch c.Rank() {
		case 1, 2:
			b := fbuf(c, float64(c.Rank()))
			c.Send(p, b.Whole(), 0, 10+c.Rank())
		case 0:
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				b := gpu.AllocBuffer[float64](c.ep.dev, 1)
				st := c.Recv(p, b.Whole(), anySource, anyTag)
				if int(b.Data()[0]) != st.source {
					t.Errorf("payload %v from %d", b.Data()[0], st.source)
				}
				if st.tag != 10+st.source {
					t.Errorf("tag %d from %d", st.tag, st.source)
				}
				got[st.source] = true
			}
			if !got[1] || !got[2] {
				t.Errorf("sources seen: %v", got)
			}
		}
	})
}

func TestNonOvertakingSameSourceTag(t *testing.T) {
	// Two same-tag messages must match posted receives in send order.
	runRanks(t, machine.Perlmutter(), 2, func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			a := fbuf(c, 1)
			b := fbuf(c, 2)
			c.Send(p, a.Whole(), 1, 3)
			c.Send(p, b.Whole(), 1, 3)
		} else {
			first := gpu.AllocBuffer[float64](c.ep.dev, 1)
			second := gpu.AllocBuffer[float64](c.ep.dev, 1)
			r1 := c.Irecv(p, first.Whole(), 0, 3)
			r2 := c.Irecv(p, second.Whole(), 0, 3)
			WaitAll(p, r1, r2)
			if first.Data()[0] != 1 || second.Data()[0] != 2 {
				t.Errorf("order: first=%v second=%v", first.Data()[0], second.Data()[0])
			}
		}
	})
}

func TestSendrecvNoDeadlock(t *testing.T) {
	runRanks(t, machine.Perlmutter(), 4, func(p *sim.Proc, c *Comm) {
		n := c.Size()
		right, left := (c.Rank()+1)%n, (c.Rank()-1+n)%n
		s := fbuf(c, float64(c.Rank()))
		r := gpu.AllocBuffer[float64](c.ep.dev, 1)
		sendrecv(p, c, s.Whole(), right, 0, r.Whole(), left, 0)
		if int(r.Data()[0]) != left {
			t.Errorf("rank %d got %v, want %d", c.Rank(), r.Data()[0], left)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	var exitTimes [5]sim.Time
	runRanks(t, machine.Perlmutter(), 5, func(p *sim.Proc, c *Comm) {
		p.Advance(sim.Duration(c.Rank()) * 100 * sim.Microsecond)
		c.Barrier(p)
		exitTimes[c.Rank()] = p.Now()
	})
	slowestEntry := sim.Time(4 * 100 * sim.Microsecond)
	for r, ts := range exitTimes {
		if ts < slowestEntry {
			t.Errorf("rank %d left barrier at %v, before slowest entry %v", r, ts, slowestEntry)
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		for root := 0; root < n; root++ {
			n, root := n, root
			t.Run(fmt.Sprintf("n%d_root%d", n, root), func(t *testing.T) {
				runRanks(t, machine.Perlmutter(), n, func(p *sim.Proc, c *Comm) {
					b := gpu.AllocBuffer[float64](c.ep.dev, 4)
					if c.Rank() == root {
						for i := range b.Data() {
							b.Data()[i] = float64(100*root + i)
						}
					}
					c.Bcast(p, b.Whole(), root)
					for i, v := range b.Data() {
						if v != float64(100*root+i) {
							t.Errorf("rank %d: b[%d]=%v", c.Rank(), i, v)
						}
					}
				})
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			runRanks(t, machine.LUMI(), n, func(p *sim.Proc, c *Comm) {
				s := fbuf(c, float64(c.Rank()+1), float64(10*(c.Rank()+1)))
				r := gpu.AllocBuffer[float64](c.ep.dev, 2)
				c.Reduce(p, s.Whole(), r.Whole(), gpu.ReduceSum, 0)
				if c.Rank() == 0 {
					wantA := float64(n*(n+1)) / 2
					if r.Data()[0] != wantA || r.Data()[1] != 10*wantA {
						t.Errorf("reduce = %v, want [%v %v]", r.Data(), wantA, 10*wantA)
					}
				}
			})
		})
	}
}

func TestAllreduceSmallAndLarge(t *testing.T) {
	for _, count := range []int{3, 1 << 14} { // recursive doubling vs ring
		for _, n := range []int{2, 3, 4, 6, 8} {
			count, n := count, n
			t.Run(fmt.Sprintf("count%d_n%d", count, n), func(t *testing.T) {
				runRanks(t, machine.Perlmutter(), n, func(p *sim.Proc, c *Comm) {
					s := gpu.AllocBuffer[float64](c.ep.dev, count)
					r := gpu.AllocBuffer[float64](c.ep.dev, count)
					for i := range s.Data() {
						s.Data()[i] = float64(c.Rank()*count + i)
					}
					c.Allreduce(p, s.Whole(), r.Whole(), gpu.ReduceSum)
					for _, i := range []int{0, count / 2, count - 1} {
						want := 0.0
						for rk := 0; rk < n; rk++ {
							want += float64(rk*count + i)
						}
						if r.Data()[i] != want {
							t.Errorf("rank %d: r[%d]=%v want %v", c.Rank(), i, r.Data()[i], want)
						}
					}
				})
			})
		}
	}
}

func TestAllreduceMinMaxInPlace(t *testing.T) {
	runRanks(t, machine.Perlmutter(), 4, func(p *sim.Proc, c *Comm) {
		b := fbuf(c, float64(c.Rank()), float64(-c.Rank()))
		c.Allreduce(p, b.Whole(), b.Whole(), gpu.ReduceMax)
		if b.Data()[0] != 3 || b.Data()[1] != 0 {
			t.Errorf("max in place = %v", b.Data())
		}
		b2 := fbuf(c, float64(c.Rank()))
		c.Allreduce(p, b2.Whole(), b2.Whole(), gpu.ReduceMin)
		if b2.Data()[0] != 0 {
			t.Errorf("min in place = %v", b2.Data())
		}
	})
}

func TestGatherScatter(t *testing.T) {
	const n = 4
	runRanks(t, machine.Perlmutter(), n, func(p *sim.Proc, c *Comm) {
		send := fbuf(c, float64(c.Rank()), float64(c.Rank())+0.5)
		var recv *gpu.Buffer[float64]
		if c.Rank() == 2 {
			recv = gpu.AllocBuffer[float64](c.ep.dev, 2*n)
		} else {
			recv = gpu.AllocBuffer[float64](c.ep.dev, 2*n) // unused
		}
		counts, displs := uniform(n, 2)
		c.Gatherv(p, send.Whole(), recv.Whole(), counts, displs, 2)
		if c.Rank() == 2 {
			for r := 0; r < n; r++ {
				if recv.Data()[2*r] != float64(r) || recv.Data()[2*r+1] != float64(r)+0.5 {
					t.Errorf("gather[%d] = %v", r, recv.Data()[2*r:2*r+2])
				}
			}
		}
		// Scatter back from rank 1.
		src := gpu.AllocBuffer[float64](c.ep.dev, 2*n)
		if c.Rank() == 1 {
			for i := range src.Data() {
				src.Data()[i] = float64(1000 + i)
			}
		}
		dst := gpu.AllocBuffer[float64](c.ep.dev, 2)
		c.Scatterv(p, src.Whole(), dst.Whole(), counts, displs, 1)
		if dst.Data()[0] != float64(1000+2*c.Rank()) {
			t.Errorf("scatter rank %d = %v", c.Rank(), dst.Data())
		}
	})
}

func TestAllgatherv(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			runRanks(t, machine.LUMI(), n, func(p *sim.Proc, c *Comm) {
				counts := make([]int, n)
				total := 0
				for r := range counts {
					counts[r] = r + 1 // variable sizes
					total += counts[r]
				}
				displs := prefixSums(counts)
				mine := counts[c.Rank()]
				send := gpu.AllocBuffer[float64](c.ep.dev, mine)
				for i := range send.Data() {
					send.Data()[i] = float64(100*c.Rank() + i)
				}
				recv := gpu.AllocBuffer[float64](c.ep.dev, total)
				c.Allgatherv(p, send.Whole(), recv.Whole(), counts, displs)
				for r := 0; r < n; r++ {
					for i := 0; i < counts[r]; i++ {
						if got := recv.Data()[displs[r]+i]; got != float64(100*r+i) {
							t.Errorf("rank %d: recv[%d+%d]=%v", c.Rank(), displs[r], i, got)
						}
					}
				}
			})
		})
	}
}

func TestAlltoall(t *testing.T) {
	const n, count = 4, 3
	runRanks(t, machine.Perlmutter(), n, func(p *sim.Proc, c *Comm) {
		send := gpu.AllocBuffer[float64](c.ep.dev, n*count)
		recv := gpu.AllocBuffer[float64](c.ep.dev, n*count)
		for dst := 0; dst < n; dst++ {
			for i := 0; i < count; i++ {
				send.Data()[dst*count+i] = float64(100*c.Rank() + 10*dst + i)
			}
		}
		c.Alltoall(p, send.Whole(), recv.Whole(), count)
		for src := 0; src < n; src++ {
			for i := 0; i < count; i++ {
				want := float64(100*src + 10*c.Rank() + i)
				if got := recv.Data()[src*count+i]; got != want {
					t.Errorf("rank %d: recv[%d]=%v want %v", c.Rank(), src*count+i, got, want)
				}
			}
		}
	})
}

func TestCommSplit(t *testing.T) {
	runRanks(t, machine.Perlmutter(), 6, func(p *sim.Proc, c *Comm) {
		color := c.Rank() % 2
		sub := c.Split(p, color, -c.Rank()) // reverse order by key
		if sub.Size() != 3 {
			t.Errorf("sub size = %d", sub.Size())
		}
		// Keys are descending with world rank, so comm rank 0 is the
		// highest world rank of the color class.
		wantRank := (5 - c.Rank() + (1 - color)) / 2
		_ = wantRank
		// Check communication stays within the split: sum world ranks.
		s := fbuf(c, float64(c.Rank()))
		r := gpu.AllocBuffer[float64](c.ep.dev, 1)
		sub.Allreduce(p, s.Whole(), r.Whole(), gpu.ReduceSum)
		want := 0.0
		for wr := color; wr < 6; wr += 2 {
			want += float64(wr)
		}
		if r.Data()[0] != want {
			t.Errorf("split allreduce = %v, want %v", r.Data()[0], want)
		}
	})
}

func TestAllreducePropertyRandomVectors(t *testing.T) {
	f := func(seed int64, nRanks uint8, count uint8) bool {
		n := int(nRanks)%7 + 1
		cnt := int(count)%33 + 1
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]float64, n)
		want := make([]float64, cnt)
		for r := range inputs {
			inputs[r] = make([]float64, cnt)
			for i := range inputs[r] {
				inputs[r][i] = float64(rng.Intn(1000))
				want[i] += inputs[r][i]
			}
		}
		ok := true
		eng := sim.NewEngine()
		defer eng.Close()
		cl := gpu.NewCluster(eng, machine.Perlmutter(), n)
		w := NewWorld(cl)
		for r := 0; r < n; r++ {
			c := w.CommWorld(r)
			eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				b := gpu.AllocBuffer[float64](c.ep.dev, cnt)
				copy(b.Data(), inputs[c.Rank()])
				c.Allreduce(p, b.Whole(), b.Whole(), gpu.ReduceSum)
				for i := range want {
					if b.Data()[i] != want[i] {
						ok = false
					}
				}
			})
		}
		if err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageLatencyIntraVsInter(t *testing.T) {
	// Inter-node roundtrip must be slower than intra-node on the same model.
	rt := func(nGPUs, peer int) sim.Duration {
		var d sim.Duration
		eng := sim.NewEngine()
		defer eng.Close()
		cl := gpu.NewCluster(eng, machine.Perlmutter(), nGPUs)
		w := NewWorld(cl)
		for r := 0; r < nGPUs; r++ {
			r := r
			c := w.CommWorld(r)
			eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				b := gpu.AllocBuffer[float64](c.ep.dev, 16)
				switch r {
				case 0:
					start := p.Now()
					c.Send(p, b.Whole(), peer, 0)
					c.Recv(p, b.Whole(), peer, 1)
					d = p.Now().Sub(start)
				case peer:
					c.Recv(p, b.Whole(), 0, 0)
					c.Send(p, b.Whole(), 0, 1)
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return d
	}
	intra := rt(2, 1)
	inter := rt(5, 4) // GPU 4 is on node 1
	if inter <= intra {
		t.Fatalf("inter (%v) should exceed intra (%v)", inter, intra)
	}
}

func TestCollTagWraparoundAndBounds(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	w := NewWorld(gpu.NewCluster(eng, machine.Perlmutter(), 1))
	c := w.CommWorld(0)

	// The collective sequence is folded modulo collWindow, so a handle that
	// has issued collWindow collectives reuses the first window's tags
	// instead of overflowing int.
	c.coll = 5
	base := c.collTag(3)
	c.coll = 5 + collWindow
	if got := c.collTag(3); got != base {
		t.Fatalf("wrapped tag = %d, want %d", got, base)
	}
	// The worst-case reserved tag stays a positive 32-bit int.
	c.coll = collWindow - 1
	if tag := c.collTag(collRounds - 1); tag <= maxUserTag || tag >= 1<<31 {
		t.Fatalf("worst-case tag %d outside (maxUserTag, 2^31)", tag)
	}
	// Adjacent collectives never share a tag within the window.
	c.coll = 7
	last := c.collTag(collRounds - 1)
	c.coll = 8
	if first := c.collTag(0); first == last {
		t.Fatalf("tag collision between consecutive collectives: %d", first)
	}
	// Rounds outside the reserved field are a programming error.
	for _, round := range []int{-1, collRounds} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("collTag(%d) did not panic", round)
				}
			}()
			c.collTag(round)
		}()
	}
}

// runStalledRendezvous sends one rendezvous-size message across nodes with
// an optional NIC stall on the sender's node and reports the receive time.
func runStalledRendezvous(t *testing.T, stallEnd sim.Time) sim.Time {
	t.Helper()
	m := *machine.Perlmutter()
	m.GPUsPerNode = 1
	m.NICsPerNode = 1
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, &m, 2)
	if stallEnd > 0 {
		cl.Fabric.StallNIC(0, 0, 0, stallEnd)
	}
	w := NewWorld(cl)
	const n = 1 << 16 // 512 KiB of float64: rendezvous protocol
	var done sim.Time
	for r := 0; r < 2; r++ {
		c := w.CommWorld(r)
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			b := gpu.AllocBuffer[float64](c.ep.dev, n)
			if c.Rank() == 0 {
				c.Send(p, b.Whole(), 1, 1)
			} else {
				st := c.Recv(p, b.Whole(), 0, 1)
				if st.count != n {
					t.Errorf("recv count = %d", st.count)
				}
				done = p.Now()
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return done
}

func TestRendezvousRetriesThroughNICStall(t *testing.T) {
	healthy := runStalledRendezvous(t, 0)
	stallEnd := sim.Time(5 * sim.Millisecond)
	if healthy >= stallEnd {
		t.Fatalf("baseline rendezvous too slow (%v) for the stall window", healthy)
	}
	// With the sender's NIC stalled, the rendezvous handshake backs off and
	// retries instead of deadlocking, completing after the window ends.
	stalled := runStalledRendezvous(t, stallEnd)
	if stalled < stallEnd {
		t.Fatalf("stalled rendezvous finished at %v, inside the window ending %v", stalled, stallEnd)
	}
	// The retry loop is deterministic: a rerun lands on the same nanosecond.
	if again := runStalledRendezvous(t, stallEnd); again != stalled {
		t.Fatalf("stalled rendezvous nondeterministic: %v vs %v", again, stalled)
	}
}

// TestEagerStagingReusesArena pins the zero-copy staging path: after the
// first eager send warms the size class, every further eager snapshot must
// be served from the cluster's arena (a pool hit) and every delivery must
// hand the staging buffer back (puts track gets). A regression here means
// each message allocates its payload again.
func TestEagerStagingReusesArena(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, machine.Perlmutter(), 2)
	w := NewWorld(cl)
	const rounds = 50
	for r := 0; r < 2; r++ {
		c := w.CommWorld(r)
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			b := gpu.AllocBuffer[float64](c.ep.dev, 64)
			// Ping-pong, so exactly one staging buffer is in flight at a
			// time and rounds 2..N must all be arena hits.
			for i := 0; i < rounds; i++ {
				if c.Rank() == 0 {
					c.Send(p, b.Whole(), 1, 7)
					c.Recv(p, b.Whole(), 1, 8)
				} else {
					c.Recv(p, b.Whole(), 0, 7)
					c.Send(p, b.Whole(), 0, 8)
				}
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := gpu.PoolStats[float64](cl)
	if st.Gets != 2*rounds {
		t.Fatalf("expected %d staging gets, got %+v", 2*rounds, st)
	}
	if st.Hits < 2*rounds-2 {
		t.Errorf("expected at least %d arena hits (all but the first per direction), got %+v", 2*rounds-2, st)
	}
	if st.Puts != 2*rounds {
		t.Errorf("expected every delivery to release its staging buffer, got %+v", st)
	}
}
