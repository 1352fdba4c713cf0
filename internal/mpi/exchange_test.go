package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Envelope lifetime and the step path of the blocking forms (DESIGN.md §5.3).

const (
	stormEager = 16   // elements: 128 B, eager
	stormRdv   = 1100 // elements: 8800 B, just over the 8 KiB eager limit
)

// runStorm is a four-rank ring storm of blocking exchanges — sendrecv, Send
// and Recv, mostly eager with every fifth round rendezvous — wrapped around
// caller-held requests: two sends and two receives per rank that complete at
// once and are then ignored while thousands of library envelopes are recycled
// under them, and one receive per rank that is only matched after the storm.
// Every payload is checked, so a recycled envelope that somebody still reads
// shows as wrong data, a wrong status or a deadlock.
func runStorm(t *testing.T, rounds int, poison bool) *World {
	t.Helper()
	const n = 4
	eng := sim.NewEngine()
	defer eng.Close()
	w := NewWorld(gpu.NewCluster(eng, machine.Perlmutter(), n))
	w.poisonRetired = poison
	val := func(from, round, i int) float64 { return float64(from*1_000_000 + round*10 + i%7) }
	fill := func(b *gpu.Buffer[float64], from, round int) gpu.View {
		for i := range b.Data() {
			b.Data()[i] = val(from, round, i)
		}
		return b.Whole()
	}
	check := func(rank int, what string, b *gpu.Buffer[float64], from, round int) {
		for i, v := range b.Data() {
			if v != val(from, round, i) {
				t.Errorf("rank %d, %s of round %d from %d: elem %d = %v, want %v", rank, what, round, from, i, v, val(from, round, i))
				return
			}
		}
	}
	const heldTag, lateTag = maxUserTag - 2, maxUserTag - 1 // above every round number
	for r := 0; r < n; r++ {
		c := w.CommWorld(r)
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			me, right, left := c.Rank(), (c.Rank()+1)%n, (c.Rank()+n-1)%n
			dev := c.ep.dev
			bufs := map[int][2]*gpu.Buffer[float64]{}
			for _, size := range []int{stormEager, stormRdv} {
				bufs[size] = [2]*gpu.Buffer[float64]{gpu.AllocBuffer[float64](dev, size), gpu.AllocBuffer[float64](dev, size)}
			}

			// Caller-held requests, one eager and one rendezvous each way.
			var heldSend, heldRecv [2]*Request
			var heldIn [2]*gpu.Buffer[float64]
			late := gpu.AllocBuffer[float64](dev, stormEager)
			lateReq := c.Irecv(p, late.Whole(), left, lateTag)
			for k, size := range []int{stormEager, stormRdv} {
				heldIn[k] = gpu.AllocBuffer[float64](dev, size)
				heldRecv[k] = c.Irecv(p, heldIn[k].Whole(), left, heldTag)
				heldSend[k] = c.Isend(p, fill(gpu.AllocBuffer[float64](dev, size), me, -1-k), right, heldTag)
			}
			WaitAll(p, heldSend[0], heldSend[1], heldRecv[0], heldRecv[1])

			for round := 0; round < rounds; round++ {
				size := stormEager
				if round%5 == 4 {
					size = stormRdv
				}
				out, in := bufs[size][0], bufs[size][1]
				switch round % 3 {
				case 0:
					st := sendrecv(p, c, fill(out, me, round), right, round, in.Whole(), left, round)
					if st.source != left || st.tag != round || st.count != size {
						t.Errorf("rank %d round %d: sendrecv status %+v", me, round, st)
					}
				case 1: // even ranks send first, odd ranks receive first
					if me%2 == 0 {
						c.Send(p, fill(out, me, round), right, round)
						c.Recv(p, in.Whole(), left, round)
					} else {
						c.Recv(p, in.Whole(), left, round)
						c.Send(p, fill(out, me, round), right, round)
					}
				default: // wildcards through the step path
					st := sendrecv(p, c, fill(out, me, round), right, round, in.Whole(), anySource, anyTag)
					if st.source != left || st.tag != round {
						t.Errorf("rank %d round %d: wildcard status %+v", me, round, st)
					}
				}
				check(me, "storm payload", in, left, round)
				if round%97 == 0 {
					for k := range heldSend {
						if !heldSend[k].done.Fired() || !heldRecv[k].done.Fired() {
							t.Errorf("rank %d round %d: a completed held request reads as pending", me, round)
						}
					}
					if lateReq.done.Fired() {
						t.Errorf("rank %d round %d: the unmatched held receive reads as done", me, round)
					}
				}
			}

			// Long after: the held requests still say what they said.
			for k, size := range []int{stormEager, stormRdv} {
				if st := heldRecv[k].wait(p); st.source != left || st.tag != heldTag || st.count != size {
					t.Errorf("rank %d: held receive %d status %+v after the storm", me, k, st)
				}
				if st := heldSend[k].wait(p); st != (Status{}) {
					t.Errorf("rank %d: held send %d status %+v", me, k, st)
				}
				check(me, "held payload", heldIn[k], left, -1-k)
			}
			c.Send(p, fill(bufs[stormEager][0], me, rounds), right, lateTag)
			if st := lateReq.wait(p); st.source != left || st.tag != lateTag || !lateReq.done.Fired() {
				t.Errorf("rank %d: late receive status %+v", me, st)
			}
			check(me, "late payload", late, left, rounds)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return w
}

// TestEnvelopeStorm runs the storm with recycling as shipped: the free list
// must have been used (a handful of envelopes serve thousands of messages)
// and must hold nothing a caller still owns.
func TestEnvelopeStorm(t *testing.T) {
	w := runStorm(t, 3000, false)
	if n := len(w.free); n == 0 || n > 64 {
		t.Errorf("free list holds %d envelopes after 12000 exchanges on 4 ranks, want a handful", n)
	}
	for _, h := range w.free {
		if !h.lib {
			t.Error("a caller-held envelope was recycled")
		}
	}
}

// TestRetiredEnvelopeIsNeverRead is the retirement rule's test: with
// poisonRetired a retired envelope is scrambled on the spot (its protocol bit
// flipped, ranks and count negative, callback nil) and never reused, so any
// read after retirement — the sender of an eager message looking at h.eager
// once the receiver has delivered it, a queue still holding it — misroutes,
// panics or deadlocks the storm.
func TestRetiredEnvelopeIsNeverRead(t *testing.T) {
	w := runStorm(t, 600, true)
	if len(w.free) != 0 {
		t.Errorf("poisoned envelopes were put back on the free list (%d)", len(w.free))
	}
}

// TestStaleQueueSlotsAreCleared: removing a matched entry from the posted or
// unexpected queue must not leave its pointer in the vacated tail slot, where
// it would keep a retired envelope or a finished receive reachable.
func TestStaleQueueSlotsAreCleared(t *testing.T) {
	var eps []*endpoint
	runRanks(t, machine.Perlmutter(), 2, func(p *sim.Proc, c *Comm) {
		eps = c.ep.world.eps
		b := gpu.AllocBuffer[float64](c.ep.dev, 4)
		for i := 0; i < 3; i++ {
			if c.Rank() == 0 {
				c.Send(p, b.Whole(), 1, i) // lands unexpected: rank 1 is late
			} else {
				p.Advance(sim.Millisecond)
				c.Recv(p, b.Whole(), 0, i)
			}
		}
		if c.Rank() == 1 {
			reqs := []*Request{c.Irecv(p, b.View(0, 1), 0, 10), c.Irecv(p, b.View(1, 1), 0, 11)}
			WaitAll(p, reqs...) // posted first, matched on arrival
		} else {
			p.Advance(sim.Millisecond)
			c.Send(p, b.View(0, 1), 1, 10)
			c.Send(p, b.View(1, 1), 1, 11)
		}
	})
	for r, ep := range eps {
		for i, h := range ep.unexpected[:cap(ep.unexpected)] {
			if h != nil {
				t.Errorf("rank %d: unexpected queue slot %d still points at an envelope", r, i)
			}
		}
		for i, pr := range ep.posted[:cap(ep.posted)] {
			if pr != nil {
				t.Errorf("rank %d: posted queue slot %d still points at a receive", r, i)
			}
		}
	}
}

// TestTruncationInsideStep: a truncating message that is already queued when
// the blocking Recv posts is delivered inside the receiver's script step, and
// surfaces as the PanicError of the receiving rank that the coroutine form
// raised; one that arrives later is delivered by the arrival callback, as
// before.
func TestTruncationInsideStep(t *testing.T) {
	for _, tc := range []struct {
		name      string
		recvDelay sim.Duration
		proc      string
	}{
		{"queued, delivered in the step", sim.Millisecond, "rank1"},
		{"posted, delivered on arrival", 0, "engine-callback"},
	} {
		eng := sim.NewEngine()
		w := NewWorld(gpu.NewCluster(eng, machine.Perlmutter(), 2))
		for r := 0; r < 2; r++ {
			c := w.CommWorld(r)
			eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				if c.Rank() == 0 {
					c.Send(p, gpu.AllocBuffer[float64](c.ep.dev, 8).Whole(), 1, 0)
					return
				}
				p.Advance(tc.recvDelay)
				c.Recv(p, gpu.AllocBuffer[float64](c.ep.dev, 4).Whole(), 0, 0)
			})
		}
		var pe *sim.PanicError
		if err := eng.Run(); !errors.As(err, &pe) || !strings.Contains(pe.Error(), fmt.Sprintf("process %q panicked", tc.proc)) ||
			!strings.Contains(pe.Error(), "message truncation: 8 elements into 4") {
			t.Errorf("%s: Run = %v, want the truncation PanicError of %s", tc.name, err, tc.proc)
		}
		eng.Close()
	}
}

// TestOneBlockingExchangePerHandle: the exchange state lives on the handle,
// so a second process entering a blocking call on a handle that has one
// outstanding is a bug in the caller and is reported as one.
func TestOneBlockingExchangePerHandle(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	w := NewWorld(gpu.NewCluster(eng, machine.Perlmutter(), 2))
	c := w.CommWorld(0)
	for _, name := range []string{"first", "second"} {
		eng.Spawn(name, func(p *sim.Proc) {
			c.Recv(p, gpu.AllocBuffer[float64](c.ep.dev, 1).Whole(), 1, 0)
		})
	}
	var pe *sim.PanicError
	if err := eng.Run(); !errors.As(err, &pe) || !strings.Contains(pe.Error(), `process "second" panicked`) || !strings.Contains(pe.Error(), "first has one outstanding") {
		t.Fatalf("Run = %v, want second's panic naming first", err)
	}
}

// TestInterruptedExchangeLeavesHandleUsable: an interrupt that unwinds a
// collective mid-loop resets the handle (the loop hook, the busy mark) and
// abandons the receive it left posted, so the next call on the same handle
// runs cleanly and a message that matches the abandoned receive is absorbed
// by it, as in the coroutine form, rather than by the new one.
func TestInterruptedExchangeLeavesHandleUsable(t *testing.T) {
	errRevoked := errors.New("revoked")
	eng := sim.NewEngine()
	defer eng.Close()
	w := NewWorld(gpu.NewCluster(eng, machine.Perlmutter(), 2))
	eng.After(50*sim.Microsecond, func() { eng.InterruptAll(errRevoked) })
	for r := 0; r < 2; r++ {
		c := w.CommWorld(r)
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			b := fbuf(c, float64(c.Rank()+1))
			if c.Rank() == 1 {
				p.Advance(100 * sim.Microsecond) // never joins the first barrier in time
				p.ClearInterrupt()
			} else {
				err := sim.Protect(func() { c.Barrier(p) })
				if err != errRevoked || p.Now() != sim.Time(50*sim.Microsecond) {
					t.Errorf("rank 0: barrier returned %v at %v, want the interrupt at 50us", err, p.Now())
				}
				if c.x.p != nil || c.x.next != nil {
					t.Error("rank 0: the unwound barrier left the handle busy")
				}
				p.Advance(100 * sim.Microsecond)
			}
			// Rank 1's first barrier message is absorbed by rank 0's abandoned
			// receive; both then run one more barrier and an allreduce on the
			// same handles. Rank 0 is one collective ahead in its sequence, so
			// bring rank 1 level first.
			if c.Rank() == 1 {
				c.enterColl()
				c.Send(p, gpu.View{}, 0, c.collTag(0))
			}
			c.Barrier(p)
			c.Allreduce(p, b.Whole(), b.Whole(), gpu.ReduceSum)
			if b.Data()[0] != 3 {
				t.Errorf("rank %d: allreduce after the interrupted barrier = %v, want 3", c.Rank(), b.Data()[0])
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
