package gpu

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/sim"
)

func newTestCluster(t *testing.T, nGPUs int) (*Cluster, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	c := NewCluster(eng, machine.Perlmutter(), nGPUs)
	t.Cleanup(eng.Close)
	return c, eng
}

func runMain(t *testing.T, eng *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	eng.Spawn("main", fn)
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestClusterShape(t *testing.T) {
	c, _ := newTestCluster(t, 6)
	if len(c.Devices) != 6 {
		t.Fatalf("devices = %d", len(c.Devices))
	}
	// Perlmutter has 4 GPUs/node: GPU 5 is node 1, local 1.
	d := c.Devices[5]
	if n := c.Fabric.Node(d.id); n != 1 || d.Local != 1 {
		t.Fatalf("gpu5 at node %d local %d", n, d.Local)
	}
	if c.Fabric.PathBetween(0, 1).String() != "intra" {
		t.Fatalf("path(0,1) = %v", c.Fabric.PathBetween(0, 1))
	}
	if c.Fabric.PathBetween(0, 4).String() != "inter" {
		t.Fatalf("path(0,4) = %v", c.Fabric.PathBetween(0, 4))
	}
	if c.Fabric.PathBetween(2, 2).String() != "self" {
		t.Fatalf("path(2,2) = %v", c.Fabric.PathBetween(2, 2))
	}
}

func TestBufferViewCopy(t *testing.T) {
	c, eng := newTestCluster(t, 1)
	runMain(t, eng, func(p *sim.Proc) {
		a := AllocBuffer[float64](c.Devices[0], 8)
		b := AllocBuffer[float64](c.Devices[0], 8)
		for i := range a.Data() {
			a.Data()[i] = float64(i)
		}
		Copy(b.View(2, 4), a.View(1, 4), 4)
		want := []float64{0, 0, 1, 2, 3, 4, 0, 0}
		for i, v := range b.Data() {
			if v != want[i] {
				t.Errorf("b[%d] = %v, want %v", i, v, want[i])
			}
		}
	})
}

func TestReduceOps(t *testing.T) {
	c, eng := newTestCluster(t, 1)
	runMain(t, eng, func(p *sim.Proc) {
		d := c.Devices[0]
		dst := AllocBuffer[int64](d, 4)
		src := AllocBuffer[int64](d, 4)
		copy(dst.Data(), []int64{1, 5, 3, 7})
		copy(src.Data(), []int64{4, 2, 3, 9})
		check := func(op ReduceOp, want []int64) {
			t.Helper()
			tmp := AllocBuffer[int64](d, 4)
			copy(tmp.Data(), dst.Data())
			Reduce(tmp.Whole(), src.Whole(), 4, op)
			for i := range want {
				if tmp.Data()[i] != want[i] {
					t.Errorf("%v[%d] = %d, want %d", op, i, tmp.Data()[i], want[i])
				}
			}
		}
		check(ReduceSum, []int64{5, 7, 6, 16})
		check(ReduceProd, []int64{4, 10, 9, 63})
		check(ReduceMin, []int64{1, 2, 3, 7})
		check(ReduceMax, []int64{4, 5, 3, 9})
	})
}

func TestCopyTypeMismatchPanics(t *testing.T) {
	c, eng := newTestCluster(t, 1)
	runMain(t, eng, func(p *sim.Proc) {
		a := AllocBuffer[float64](c.Devices[0], 4)
		b := AllocBuffer[float32](c.Devices[0], 4)
		defer func() {
			if recover() == nil {
				t.Error("expected panic on type mismatch")
			}
		}()
		Copy(a.Whole(), b.Whole(), 4)
	})
}

func TestViewBounds(t *testing.T) {
	c, eng := newTestCluster(t, 1)
	runMain(t, eng, func(p *sim.Proc) {
		a := AllocBuffer[int32](c.Devices[0], 4)
		if a.Whole().Bytes() != 16 {
			t.Errorf("bytes = %d, want 16", a.Whole().Bytes())
		}
		v := a.View(1, 3)
		if v.Offset() != 1 || v.Len() != 3 {
			t.Errorf("view off=%d len=%d", v.Offset(), v.Len())
		}
		sub := v.Slice(1, 2)
		if sub.Offset() != 2 || sub.Len() != 2 {
			t.Errorf("subview off=%d len=%d", sub.Offset(), sub.Len())
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic on out-of-range view")
			}
		}()
		a.View(2, 3)
	})
}

func TestStreamOrdering(t *testing.T) {
	c, eng := newTestCluster(t, 1)
	var order []int
	runMain(t, eng, func(p *sim.Proc) {
		s := c.Devices[0].DefaultStream()
		for i := 0; i < 4; i++ {
			i := i
			s.Enqueue("op", func(sp *sim.Proc) {
				sp.Advance(sim.Duration(10 * (4 - i))) // later ops shorter
				order = append(order, i)
			})
		}
		s.Synchronize(p)
		if s.Pending() != 0 {
			t.Errorf("pending = %d after sync", s.Pending())
		}
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want in-order", order)
		}
	}
}

func TestStreamsIndependent(t *testing.T) {
	c, eng := newTestCluster(t, 1)
	var t1, t2 sim.Time
	runMain(t, eng, func(p *sim.Proc) {
		d := c.Devices[0]
		s1 := d.NewStream("a")
		s2 := d.NewStream("b")
		s1.Enqueue("slow", func(sp *sim.Proc) { sp.Advance(1000); t1 = sp.Now() })
		s2.Enqueue("fast", func(sp *sim.Proc) { sp.Advance(10); t2 = sp.Now() })
		s1.Synchronize(p)
		s2.Synchronize(p)
	})
	if t2 >= t1 {
		t.Fatalf("streams serialized: fast done at %v, slow at %v", t2, t1)
	}
}

func TestKernelLaunchAsyncAndCost(t *testing.T) {
	c, eng := newTestCluster(t, 1)
	var hostAfterLaunch, kernelDone sim.Time
	ran := false
	runMain(t, eng, func(p *sim.Proc) {
		s := c.Devices[0].DefaultStream()
		k := &Kernel{
			Name: "k",
			Time: func(d *Device) sim.Duration { return 100 * sim.Microsecond },
			Body: func(kc *KernelCtx) { ran = true },
		}
		s.Launch(p, k, nil)
		hostAfterLaunch = p.Now()
		s.Synchronize(p)
		kernelDone = p.Now()
	})
	if !ran {
		t.Fatal("kernel body did not run")
	}
	launch := machine.Perlmutter().GPU.KernelLaunch
	if hostAfterLaunch != sim.Time(0).Add(launch) {
		t.Fatalf("host after launch = %v, want %v", hostAfterLaunch, launch)
	}
	if got := kernelDone.Sub(hostAfterLaunch); got != 100*sim.Microsecond {
		t.Fatalf("kernel duration = %v, want 100us", got)
	}
}

func TestEventTiming(t *testing.T) {
	c, eng := newTestCluster(t, 1)
	var elapsed sim.Duration
	runMain(t, eng, func(p *sim.Proc) {
		s := c.Devices[0].DefaultStream()
		start, end := NewEvent("start"), NewEvent("end")
		start.Record(s)
		s.Enqueue("work", func(sp *sim.Proc) { sp.Advance(250) })
		end.Record(s)
		end.Synchronize(p)
		elapsed = Elapsed(start, end)
	})
	if elapsed != 250 {
		t.Fatalf("elapsed = %v, want 250", elapsed)
	}
}

func TestEventReRecord(t *testing.T) {
	c, eng := newTestCluster(t, 1)
	runMain(t, eng, func(p *sim.Proc) {
		s := c.Devices[0].DefaultStream()
		ev := NewEvent("e")
		ev.Record(s)
		ev.Synchronize(p)
		first := ev.At()
		s.Enqueue("gap", func(sp *sim.Proc) { sp.Advance(500) })
		ev.Record(s)
		ev.Synchronize(p)
		if ev.At() <= first {
			t.Fatalf("re-record did not advance: %v then %v", first, ev.At())
		}
	})
}

func TestMemcpyAsyncCopiesAndTakesTime(t *testing.T) {
	c, eng := newTestCluster(t, 1)
	runMain(t, eng, func(p *sim.Proc) {
		d := c.Devices[0]
		s := d.DefaultStream()
		a := AllocBuffer[float32](d, 1<<20)
		b := AllocBuffer[float32](d, 1<<20)
		for i := range a.Data() {
			a.Data()[i] = float32(i % 97)
		}
		t0 := p.Now()
		s.MemcpyAsync(p, b.Whole(), a.Whole(), 1<<20)
		s.Synchronize(p)
		if b.Data()[12345] != a.Data()[12345] {
			t.Error("memcpy did not copy data")
		}
		if p.Now() == t0 {
			t.Error("memcpy consumed no virtual time")
		}
	})
}

func TestSizeOfNamedTypes(t *testing.T) {
	type myFloat float32
	c, eng := newTestCluster(t, 1)
	runMain(t, eng, func(p *sim.Proc) {
		b := AllocBuffer[myFloat](c.Devices[0], 3)
		if b.Whole().ElemSize() != 4 {
			t.Fatalf("elem size = %d, want 4", b.Whole().ElemSize())
		}
	})
}

func TestReduceSumPropertyMatchesScalar(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		eng := sim.NewEngine()
		defer eng.Close()
		c := NewCluster(eng, machine.Perlmutter(), 1)
		ok := true
		eng.Spawn("main", func(p *sim.Proc) {
			x := AllocBuffer[float64](c.Devices[0], n)
			y := AllocBuffer[float64](c.Devices[0], n)
			copy(x.Data(), a[:n])
			copy(y.Data(), b[:n])
			Reduce(x.Whole(), y.Whole(), n, ReduceSum)
			for i := 0; i < n; i++ {
				if x.Data()[i] != a[i]+b[i] {
					ok = false
				}
			}
		})
		if err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeFaultScalesKernelTime(t *testing.T) {
	// Slow-rank fault injection: the cluster's ComputeFault hook multiplies
	// modeled kernel time on the matched device during its window.
	c, eng := newTestCluster(t, 2)
	c.ComputeFault = func(at sim.Time, rank int) float64 {
		if rank == 1 && at < sim.Time(sim.Second) {
			return 2.5
		}
		return 1
	}
	durs := make([]sim.Duration, 2)
	for r := 0; r < 2; r++ {
		r := r
		eng.Spawn("host", func(p *sim.Proc) {
			s := c.Devices[r].DefaultStream()
			k := &Kernel{
				Name: "k",
				Time: func(d *Device) sim.Duration { return 100 * sim.Microsecond },
			}
			start := p.Now()
			s.Launch(p, k, nil)
			s.Synchronize(p)
			durs[r] = p.Now().Sub(start)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	launch := machine.Perlmutter().GPU.KernelLaunch
	if durs[0] != launch+100*sim.Microsecond {
		t.Fatalf("healthy rank took %v", durs[0])
	}
	if durs[1] != launch+250*sim.Microsecond {
		t.Fatalf("slow rank took %v, want launch+250us", durs[1])
	}
}

func TestComputeFaultScalesComputeBytes(t *testing.T) {
	c, eng := newTestCluster(t, 1)
	c.ComputeFault = func(at sim.Time, rank int) float64 { return 3 }
	var dur sim.Duration
	runMain(t, eng, func(p *sim.Proc) {
		s := c.Devices[0].DefaultStream()
		k := &Kernel{
			Name: "stencil",
			Body: func(kc *KernelCtx) { kc.ComputeBytes(1 << 20) },
		}
		s.Launch(p, k, nil)
		start := p.Now()
		s.Synchronize(p)
		dur = p.Now().Sub(start)
	})
	want := sim.Duration(3 * float64(machine.Perlmutter().StencilKernelTime(1<<20)))
	if dur != want {
		t.Fatalf("faulted ComputeBytes took %v, want %v", dur, want)
	}
}

func TestCombineMatchesCopyThenReduce(t *testing.T) {
	a := []float64{3, -2, 5, 0, 7}
	b := []float64{1, 4, -5, 2, 7}
	for _, op := range []ReduceOp{ReduceSum, ReduceProd, ReduceMin, ReduceMax} {
		av, bv := AllocBuffer[float64](nil, len(a)), AllocBuffer[float64](nil, len(b))
		copy(av.Data(), a)
		copy(bv.Data(), b)
		want := AllocBuffer[float64](nil, len(a))
		Copy(want.Whole(), av.Whole(), len(a))
		Reduce(want.Whole(), bv.Whole(), len(a), op)

		got := AllocBuffer[float64](nil, len(a))
		Combine(got.Whole(), av.Whole(), bv.Whole(), len(a), op)
		for i := range a {
			if got.Data()[i] != want.Data()[i] {
				t.Errorf("%v: combine[%d] = %v, copy+reduce = %v", op, i, got.Data()[i], want.Data()[i])
			}
			if av.Data()[i] != a[i] || bv.Data()[i] != b[i] {
				t.Errorf("%v: combine wrote an operand at %d", op, i)
			}
		}
		// dst may be the left operand itself: that is Reduce.
		Combine(av.Whole(), av.Whole(), bv.Whole(), len(a), op)
		for i := range a {
			if av.Data()[i] != want.Data()[i] {
				t.Errorf("%v: in-place combine[%d] = %v, want %v", op, i, av.Data()[i], want.Data()[i])
			}
		}
	}
}

func TestViewOverlaps(t *testing.T) {
	b := AllocBuffer[float64](nil, 10)
	other := AllocBuffer[float64](nil, 10)
	for _, tc := range []struct {
		x, y View
		want bool
	}{
		{b.View(0, 5), b.View(5, 5), false},
		{b.View(0, 6), b.View(5, 5), true},
		{b.View(2, 3), b.Whole(), true},
		{b.View(4, 0), b.Whole(), false},
		{b.Whole(), other.Whole(), false},
		{View{}, View{}, false},
	} {
		if got := tc.x.Overlaps(tc.y); got != tc.want {
			t.Errorf("[%d,+%d) overlaps [%d,+%d) = %v, want %v", tc.x.Offset(), tc.x.Len(), tc.y.Offset(), tc.y.Len(), got, tc.want)
		}
		if tc.x.Overlaps(tc.y) != tc.y.Overlaps(tc.x) {
			t.Errorf("Overlaps is not symmetric for [%d,+%d), [%d,+%d)", tc.x.Offset(), tc.x.Len(), tc.y.Offset(), tc.y.Len())
		}
	}
}

// TestReduceAllAliasing folds the same sources into a fresh destination, into
// the first source and into a later source (an in-place rooted reduce or
// reduce-scatter at a rank other than 0): the fold order, and so the bits,
// must not depend on where the result accumulates.
func TestReduceAllAliasing(t *testing.T) {
	c, _ := newTestCluster(t, 1)
	const n = 4
	mk := func() []View {
		srcs := make([]View, 3)
		for r := range srcs {
			b := AllocBuffer[float64](c.Devices[0], n)
			for i := range b.Data() {
				b.Data()[i] = 0.1 * float64(1+r*n+i) // inexact: order-sensitive
			}
			srcs[r] = b.Whole()
		}
		return srcs
	}
	fresh := AllocBuffer[float64](c.Devices[0], n)
	ReduceAll(fresh.Whole(), mk(), n, ReduceSum)
	for alias := range 3 {
		srcs := mk()
		ReduceAll(srcs[alias], srcs, n, ReduceSum)
		for i := 0; i < n; i++ {
			if got := srcs[alias].m.(*Buffer[float64]).data[i]; got != fresh.Data()[i] {
				t.Errorf("dst aliasing source %d: elem %d = %v, want %v", alias, i, got, fresh.Data()[i])
			}
		}
		for r, s := range srcs {
			if r != alias && s.m.(*Buffer[float64]).data[0] != 0.1*float64(1+r*n) {
				t.Errorf("dst aliasing source %d: source %d was written", alias, r)
			}
		}
	}
	if st := PoolStats[float64](c); st.Gets != 2 || st.Gets != st.Puts+st.Drops {
		t.Errorf("scratch should be drawn only when dst aliases a later source, and released: %+v", st)
	}
}
