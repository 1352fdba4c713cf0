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

func TestP2PContentIntegrityAcrossProtocolsProperty(t *testing.T) {
	// Property: for any message size (straddling the eager/rendezvous
	// threshold), the receiver observes exactly the sent bytes, and the
	// sender's buffer is reusable immediately after a completed Send.
	f := func(seed int64, sizeSel uint32) bool {
		// Bias sizes around the 8 KiB threshold.
		sizes := []int{1, 7, 1023, 1024, 1025, 8191/8 + 1, 8192 / 8, 8193/8 + 1, 1 << 14, 1 << 16}
		n := sizes[int(sizeSel)%len(sizes)]
		rng := rand.New(rand.NewSource(seed))
		payload := make([]float64, n)
		for i := range payload {
			payload[i] = rng.Float64()
		}
		eng := sim.NewEngine()
		defer eng.Close()
		cl := gpu.NewCluster(eng, machine.Perlmutter(), 2)
		w := NewWorld(cl)
		ok := true
		for r := 0; r < 2; r++ {
			c := w.CommWorld(r)
			eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				buf := gpu.AllocBuffer[float64](c.ep.dev, n)
				if c.Rank() == 0 {
					copy(buf.Data(), payload)
					c.Send(p, buf.Whole(), 1, 42)
					for i := range buf.Data() {
						buf.Data()[i] = -1 // reuse after completion
					}
				} else {
					c.Recv(p, buf.Whole(), 0, 42)
					for i := range buf.Data() {
						if buf.Data()[i] != payload[i] {
							ok = false
							return
						}
					}
				}
			})
		}
		if err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncationPanics(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, machine.Perlmutter(), 2)
	w := NewWorld(cl)
	for r := 0; r < 2; r++ {
		c := w.CommWorld(r)
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			if c.Rank() == 0 {
				big := gpu.AllocBuffer[float64](c.ep.dev, 8)
				c.Send(p, big.Whole(), 1, 0)
			} else {
				small := gpu.AllocBuffer[float64](c.ep.dev, 4)
				c.Recv(p, small.Whole(), 0, 0) // 8 into 4: error
			}
		})
	}
	err := eng.Run()
	if _, ok := err.(*sim.PanicError); !ok {
		t.Fatalf("expected PanicError on truncation, got %v", err)
	}
}

func TestRequestDoneAndStatus(t *testing.T) {
	runRanks(t, machine.Perlmutter(), 2, func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			b := fbuf(c, 1, 2)
			req := c.Isend(p, b.Whole(), 1, 5)
			req.wait(p)
			if !req.done.Fired() {
				t.Error("send request not done after Wait")
			}
		} else {
			b := gpu.AllocBuffer[float64](c.ep.dev, 2)
			req := c.Irecv(p, b.Whole(), 0, 5)
			st := req.wait(p)
			if st.source != 0 || st.tag != 5 || st.count != 2 {
				t.Errorf("status %+v", st)
			}
			if !req.done.Fired() {
				t.Error("recv request not done")
			}
		}
	})
}

func TestCommDup(t *testing.T) {
	runRanks(t, machine.Perlmutter(), 3, func(p *sim.Proc, c *Comm) {
		dup := c.Split(p, 0, c.Rank())
		if dup.Size() != c.Size() || dup.Rank() != c.Rank() {
			t.Errorf("dup shape %d/%d", dup.Rank(), dup.Size())
		}
		// Traffic on the dup does not interfere with the parent: matching
		// is per context.
		b := fbuf(c, float64(c.Rank()))
		r := gpu.AllocBuffer[float64](c.ep.dev, 1)
		dup.Allreduce(p, b.Whole(), r.Whole(), gpu.ReduceSum)
		if r.Data()[0] != 3 {
			t.Errorf("dup allreduce = %v", r.Data()[0])
		}
	})
}

func TestCollectivesPropertyAgainstSerial(t *testing.T) {
	// Property: Bcast-then-Reduce(sum) over random vectors equals n * the
	// broadcast payload.
	f := func(seed int64, ranks uint8, count uint8) bool {
		n := int(ranks)%6 + 2
		cnt := int(count)%17 + 1
		rng := rand.New(rand.NewSource(seed))
		payload := make([]float64, cnt)
		for i := range payload {
			payload[i] = float64(rng.Intn(100))
		}
		root := rng.Intn(n)
		ok := true
		eng := sim.NewEngine()
		defer eng.Close()
		cl := gpu.NewCluster(eng, machine.Perlmutter(), n)
		w := NewWorld(cl)
		for r := 0; r < n; r++ {
			c := w.CommWorld(r)
			eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				b := gpu.AllocBuffer[float64](c.ep.dev, cnt)
				if c.Rank() == root {
					copy(b.Data(), payload)
				}
				c.Bcast(p, b.Whole(), root)
				out := gpu.AllocBuffer[float64](c.ep.dev, cnt)
				c.Reduce(p, b.Whole(), out.Whole(), gpu.ReduceSum, root)
				if c.Rank() == root {
					for i := range payload {
						if out.Data()[i] != payload[i]*float64(n) {
							ok = false
						}
					}
				}
			})
		}
		if err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
