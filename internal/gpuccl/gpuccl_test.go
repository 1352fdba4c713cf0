package gpuccl

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// runRanks runs one process per rank; each gets its comm and its device's
// default stream.
func runRanks(t *testing.T, model *machine.Model, n int, body func(p *sim.Proc, c *Comm, s *gpu.Stream)) {
	t.Helper()
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, model, n)
	w := NewWorld(cl)
	for r := 0; r < n; r++ {
		c := w.Comm(r)
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			body(p, c, c.dev.DefaultStream())
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestAllReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			runRanks(t, machine.Perlmutter(), n, func(p *sim.Proc, c *Comm, s *gpu.Stream) {
				const count = 100
				send := gpu.AllocBuffer[float64](c.dev, count)
				recv := gpu.AllocBuffer[float64](c.dev, count)
				for i := range send.Data() {
					send.Data()[i] = float64(c.Rank() + i)
				}
				c.AllReduce(p, s, send.Whole(), recv.Whole(), gpu.ReduceSum)
				s.Synchronize(p)
				for _, i := range []int{0, count / 2, count - 1} {
					want := 0.0
					for r := 0; r < n; r++ {
						want += float64(r + i)
					}
					if recv.Data()[i] != want {
						t.Errorf("rank %d recv[%d] = %v, want %v", c.Rank(), i, recv.Data()[i], want)
					}
				}
			})
		})
	}
}

func TestAllReduceInPlace(t *testing.T) {
	runRanks(t, machine.LUMI(), 4, func(p *sim.Proc, c *Comm, s *gpu.Stream) {
		b := gpu.AllocBuffer[float64](c.dev, 8)
		for i := range b.Data() {
			b.Data()[i] = float64(c.Rank())
		}
		c.AllReduce(p, s, b.Whole(), b.Whole(), gpu.ReduceMax)
		s.Synchronize(p)
		for i := range b.Data() {
			if b.Data()[i] != 3 {
				t.Fatalf("in-place max = %v", b.Data())
			}
		}
	})
}

func TestBroadcast(t *testing.T) {
	for _, root := range []int{0, 2} {
		root := root
		t.Run(fmt.Sprintf("root%d", root), func(t *testing.T) {
			runRanks(t, machine.Perlmutter(), 4, func(p *sim.Proc, c *Comm, s *gpu.Stream) {
				b := gpu.AllocBuffer[float32](c.dev, 16)
				if c.Rank() == root {
					for i := range b.Data() {
						b.Data()[i] = float32(i) * 1.5
					}
				}
				c.Broadcast(p, s, b.Whole(), root)
				s.Synchronize(p)
				for i, v := range b.Data() {
					if v != float32(i)*1.5 {
						t.Errorf("rank %d b[%d] = %v", c.Rank(), i, v)
					}
				}
			})
		})
	}
}

func TestReduceToRoot(t *testing.T) {
	for _, inPlace := range []bool{false, true} {
		runRanks(t, machine.Perlmutter(), 5, func(p *sim.Proc, c *Comm, s *gpu.Stream) {
			send := gpu.AllocBuffer[int64](c.dev, 3)
			for i := range send.Data() {
				send.Data()[i] = int64(c.Rank() + 1)
			}
			recv := gpu.AllocBuffer[int64](c.dev, 3)
			if inPlace { // the root's send buffer doubles as its result buffer
				recv = send
			}
			c.Reduce(p, s, send.Whole(), recv.Whole(), gpu.ReduceSum, 2)
			s.Synchronize(p)
			if c.Rank() == 2 {
				for _, v := range recv.Data() {
					if v != 15 {
						t.Fatalf("reduce at root (in place %v) = %v", inPlace, recv.Data())
					}
				}
			}
		})
	}
}

func TestGroupedSendRecvExchange(t *testing.T) {
	// The Fig. 1 Listing 2 pattern: grouped send/recv halo exchange.
	runRanks(t, machine.Perlmutter(), 4, func(p *sim.Proc, c *Comm, s *gpu.Stream) {
		n := c.Size()
		right, left := (c.Rank()+1)%n, (c.Rank()-1+n)%n
		send := gpu.AllocBuffer[float64](c.dev, 4)
		for i := range send.Data() {
			send.Data()[i] = float64(100*c.Rank() + i)
		}
		fromLeft := gpu.AllocBuffer[float64](c.dev, 4)
		fromRight := gpu.AllocBuffer[float64](c.dev, 4)
		c.GroupStart()
		c.Send(p, s, send.Whole(), right)
		c.Send(p, s, send.Whole(), left)
		c.Recv(p, s, fromLeft.Whole(), left)
		c.Recv(p, s, fromRight.Whole(), right)
		c.GroupEnd(p, s)
		s.Synchronize(p)
		if fromLeft.Data()[1] != float64(100*left+1) {
			t.Errorf("rank %d fromLeft = %v", c.Rank(), fromLeft.Data())
		}
		if fromRight.Data()[2] != float64(100*right+2) {
			t.Errorf("rank %d fromRight = %v", c.Rank(), fromRight.Data())
		}
	})
}

func TestGroupFusionAmortizesLaunch(t *testing.T) {
	// Two grouped ops must take less virtual time than two ungrouped ops:
	// one launch overhead instead of two.
	elapsed := func(grouped bool) sim.Duration {
		var d sim.Duration
		eng := sim.NewEngine()
		defer eng.Close()
		cl := gpu.NewCluster(eng, machine.Perlmutter(), 2)
		w := NewWorld(cl)
		for r := 0; r < 2; r++ {
			c := w.Comm(r)
			eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				s := c.dev.DefaultStream()
				a := gpu.AllocBuffer[float64](c.dev, 8)
				b := gpu.AllocBuffer[float64](c.dev, 8)
				peer := 1 - c.Rank()
				start := p.Now()
				if grouped {
					c.GroupStart()
				}
				if c.Rank() == 0 {
					c.Send(p, s, a.Whole(), peer)
					c.Send(p, s, b.Whole(), peer)
				} else {
					c.Recv(p, s, a.Whole(), peer)
					c.Recv(p, s, b.Whole(), peer)
				}
				if grouped {
					c.GroupEnd(p, s)
				}
				s.Synchronize(p)
				if c.Rank() == 0 {
					d = p.Now().Sub(start)
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return d
	}
	g, ug := elapsed(true), elapsed(false)
	prof := machine.Perlmutter().Profile(machine.LibGPUCCL, machine.APIHost)
	if ug-g < sim.Duration(float64(prof.LaunchOverhead)*3/4) {
		t.Fatalf("grouping saved only %v (grouped %v, ungrouped %v)", ug-g, g, ug)
	}
}

func TestSmallAllReduceDominatedByLaunch(t *testing.T) {
	var d sim.Duration
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, machine.Perlmutter(), 2)
	w := NewWorld(cl)
	for r := 0; r < 2; r++ {
		c := w.Comm(r)
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			s := c.dev.DefaultStream()
			b := gpu.AllocBuffer[float64](c.dev, 1)
			start := p.Now()
			c.AllReduce(p, s, b.Whole(), b.Whole(), gpu.ReduceSum)
			s.Synchronize(p)
			if c.Rank() == 0 {
				d = p.Now().Sub(start)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	launch := machine.Perlmutter().Profile(machine.LibGPUCCL, machine.APIHost).LaunchOverhead
	if d < launch {
		t.Fatalf("tiny allreduce took %v, below launch overhead %v", d, launch)
	}
	if d > 20*launch {
		t.Fatalf("tiny allreduce took %v, unreasonably above launch overhead %v", d, launch)
	}
}

func TestUngroupedBidirectionalDeadlocks(t *testing.T) {
	// NCCL semantics: an ungrouped Send and Recv between mutual peers,
	// each enqueued Send-first on both ranks, deadlocks — each rank's
	// send kernel waits for the peer's recv kernel, which sits behind the
	// peer's own blocked send. The simulator must reproduce (and detect)
	// this, which is exactly why the paper's Listing 2 uses groups.
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, machine.Perlmutter(), 2)
	w := NewWorld(cl)
	for r := 0; r < 2; r++ {
		c := w.Comm(r)
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			s := c.dev.DefaultStream()
			buf := gpu.AllocBuffer[float64](c.dev, 4)
			peer := 1 - c.Rank()
			c.Send(p, s, buf.Whole(), peer) // both send first: deadlock
			c.Recv(p, s, buf.Whole(), peer)
			s.Synchronize(p)
		})
	}
	err := eng.Run()
	dl, ok := err.(*sim.DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	// Each host is reported parked on the stream its stuck send kernel holds.
	for r := 0; r < 2; r++ {
		want := fmt.Sprintf("rank%d: counter gpu%d.default.done", r, r)
		if !strings.Contains(dl.Error(), want) {
			t.Errorf("deadlock report %q does not name %q", dl.Error(), want)
		}
	}
}

// TestRevokeWithOutstandingMessages kills rank 2 and then revokes everything
// (InterruptAll, the failure detector's delivery) while the survivors' fused
// kernels hold point-to-point state machines in every state: a matched
// message whose transfer is in flight (0→1, and 2→0 from the dead rank), a
// message only the dead rank's torn-down kernel had started (its receive
// from 1), and a send and a receive whose peer never shows up (0→2, 2→1).
// The survivors must see the typed error on host and stream, their streams
// must keep serving — a second exchange on the same pair, started while the
// revoked transfer is still in flight, delivers its own payload, so no stale
// callback fired into a recycled message — and once the run drains no message
// is left in any FIFO.
func TestRevokeWithOutstandingMessages(t *testing.T) {
	const big = 1 << 19 // 4 MiB of float64: in flight across both faults
	m := *machine.Perlmutter()
	m.GPUsPerNode, m.NICsPerNode = 1, 1 // three nodes: transfers take the NICs
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, &m, 3)
	w := NewWorld(cl)

	fill := func(b *gpu.Buffer[float64], v float64) *gpu.Buffer[float64] {
		for i := range b.Data() {
			b.Data()[i] = v
		}
		return b
	}
	procs := make([]*sim.Proc, 3)
	second := make([]float64, 2) // what each survivor received in the second exchange
	var revokedAt sim.Time
	for r := 0; r < 3; r++ {
		c := w.Comm(r)
		procs[r] = eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			s, dev := c.dev.DefaultStream(), c.dev
			out := fill(gpu.AllocBuffer[float64](dev, big), float64(r+1))
			in := gpu.AllocBuffer[float64](dev, big)
			small := gpu.AllocBuffer[float64](dev, 8)
			c.GroupStart()
			switch r {
			case 0:
				c.Send(p, s, out.Whole(), 1)   // matched, in flight at the revoke
				c.Send(p, s, small.Whole(), 2) // rank 2 never receives
				c.Recv(p, s, in.Whole(), 2)    // matched, its sender dies mid-flight
			case 1:
				c.Recv(p, s, in.Whole(), 0)
				c.Recv(p, s, small.Whole(), 2) // rank 2 never sends
			case 2:
				c.Send(p, s, out.Whole(), 0)
				c.Recv(p, s, small.Whole(), 1) // rank 1 never sends
			}
			c.GroupEnd(p, s)
			err := sim.Protect(func() { s.Synchronize(p) })
			var rf *sim.RankFailedError
			if !errors.As(err, &rf) || rf.Rank != 2 {
				t.Errorf("rank %d: Synchronize returned %v, want rank 2 failed", r, err)
			}
			if r == 2 {
				t.Error("the killed rank kept running")
			}
			revokedAt = p.Now()
			s.Synchronize(p) // the stream drains its revoked kernel and records the abort
			if err := s.TakeAborted(); !errors.As(err, &rf) {
				t.Errorf("rank %d: stream recorded %v, want the rank failure", r, err)
			}
			if r == 1 && in.Data()[0] != 0 {
				t.Error("rank 1: the 4 MiB payload landed before the revoke; nothing was in flight")
			}
			// Second exchange between the survivors, same pair FIFOs.
			peer := 1 - r
			again := fill(gpu.AllocBuffer[float64](dev, 8), float64(10*(r+1)))
			got := gpu.AllocBuffer[float64](dev, 8)
			c.GroupStart()
			c.Send(p, s, again.Whole(), peer)
			c.Recv(p, s, got.Whole(), peer)
			c.GroupEnd(p, s)
			s.Synchronize(p)
			if err := s.TakeAborted(); err != nil {
				t.Errorf("rank %d: second exchange aborted: %v", r, err)
			}
			second[r] = got.Data()[7]
			// The pair's ports serve transfers in order, so the second message
			// arrives behind the revoked one, whose payload still lands: had the
			// first arrival completed the second exchange, it would not have.
			if r == 1 && in.Data()[0] != 1 {
				t.Error("rank 1: second exchange completed before the revoked 4 MiB transfer landed")
			}
		})
	}
	eng.After(30*sim.Microsecond, func() {
		procs[2].Kill()
		cl.Devices[2].Crash()
	})
	eng.After(60*sim.Microsecond, func() {
		eng.InterruptAll(&sim.RankFailedError{Rank: 2, At: eng.Now()})
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if revokedAt != sim.Time(60*sim.Microsecond) {
		t.Errorf("survivors resumed at %v, want the revoke instant", revokedAt)
	}
	if second[0] != 20 || second[1] != 10 {
		t.Errorf("second exchange delivered %v, want [20 10]", second)
	}
	for k, f := range w.shared.pairs {
		if len(f.msgs) != 0 {
			t.Errorf("pair %d->%d still holds %d message(s)", k.src, k.dst, len(f.msgs))
		}
		seen := map[*p2pMsg]bool{}
		for _, m := range f.free {
			if seen[m] {
				t.Errorf("pair %d->%d recycled one message twice", k.src, k.dst)
			}
			seen[m] = true
		}
	}
}

func TestStreamOrderingAcrossOps(t *testing.T) {
	// A kernel enqueued after a collective must observe its results.
	runRanks(t, machine.Perlmutter(), 2, func(p *sim.Proc, c *Comm, s *gpu.Stream) {
		b := gpu.AllocBuffer[float64](c.dev, 1)
		b.Data()[0] = 1
		c.AllReduce(p, s, b.Whole(), b.Whole(), gpu.ReduceSum)
		var seen float64
		s.Launch(p, &gpu.Kernel{Name: "check", Body: func(k *gpu.KernelCtx) {
			seen = b.Data()[0]
		}}, nil)
		s.Synchronize(p)
		if seen != 2 {
			t.Fatalf("kernel after allreduce saw %v, want 2", seen)
		}
	})
}
