package gpu

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// deviceOf is the id of the device holding the view's buffer.
func deviceOf(v View) int { return v.m.(interface{ deviceID() int }).deviceID() }

// Tests for the staging arena behind View.Clone/Release: clones draw storage
// from the owning cluster's buf.Pool, Release hands it back, and the
// steady-state clone path allocates nothing but the envelope.

func TestCloneDrawsFromArenaAndReleaseReturns(t *testing.T) {
	c, _ := newTestCluster(t, 1)
	b := AllocBuffer[float64](c.Devices[0], 100)
	for i := range b.Data() {
		b.Data()[i] = float64(i)
	}

	cl := b.Whole().Clone()
	st := PoolStats[float64](c)
	if st.Gets != 1 || st.Hits != 0 {
		t.Fatalf("after first clone: %+v", st)
	}
	cl.Release()
	st = PoolStats[float64](c)
	if st.Puts != 1 || st.Pooled != 1 {
		t.Fatalf("after release: %+v", st)
	}

	// Second clone of the same size class must reuse the released storage
	// and carry the correct contents despite the unzeroed pool slice.
	cl2 := b.View(0, 80).Clone()
	st = PoolStats[float64](c)
	if st.Gets != 2 || st.Hits != 1 {
		t.Fatalf("after second clone: %+v", st)
	}
	dst := AllocBuffer[float64](c.Devices[0], 80)
	Copy(dst.Whole(), cl2, 80)
	for i, v := range dst.Data() {
		if v != float64(i) {
			t.Fatalf("clone contents corrupted at %d: %v", i, v)
		}
	}
	cl2.Release()
}

func TestReleasePartialViewPanics(t *testing.T) {
	c, _ := newTestCluster(t, 1)
	b := AllocBuffer[float64](c.Devices[0], 16)
	cl := b.Whole().Clone()
	defer func() {
		if recover() == nil {
			t.Fatal("Release of a partial view did not panic")
		}
	}()
	cl.Slice(0, 8).Release()
}

func TestReleasedCloneIsPoisoned(t *testing.T) {
	c, _ := newTestCluster(t, 1)
	b := AllocBuffer[float64](c.Devices[0], 16)
	cl := b.Whole().Clone()
	cl.Release()
	dst := AllocBuffer[float64](c.Devices[0], 16)
	defer func() {
		if recover() == nil {
			t.Fatal("copy out of a released clone did not panic")
		}
	}()
	Copy(dst.Whole(), cl, 16)
}

func TestZeroViewCloneReleaseNoop(t *testing.T) {
	var v View
	v.Clone().Release() // must not panic
}

// TestCloneReleaseAllocationGuard pins the steady-state staging cost: with a
// warm arena, a clone+release cycle allocates only the envelope (one Buffer
// header), never the payload. A regression here means eager sends are back
// to copying through the garbage collector.
func TestCloneReleaseAllocationGuard(t *testing.T) {
	c, _ := newTestCluster(t, 1)
	b := AllocBuffer[float64](c.Devices[0], 4096)
	v := b.Whole()
	v.Clone().Release() // warm the size class
	avg := testing.AllocsPerRun(200, func() {
		cl := v.Clone()
		cl.Release()
	})
	if avg > 1.05 {
		t.Errorf("clone+release allocates %.2f objects/op, want <= 1 (envelope only)", avg)
	}
	st := PoolStats[float64](c)
	if st.Hits < st.Gets-1 {
		t.Errorf("arena misses in steady state: %+v", st)
	}
}

// TestArenaIsPerCluster verifies the ownership rule that makes pooling safe
// under the parallel sweep runner: two clusters never share an arena.
func TestArenaIsPerCluster(t *testing.T) {
	c1, _ := newTestCluster(t, 1)
	c2, _ := newTestCluster(t, 1)
	if poolFor[float64](c1) == poolFor[float64](c2) {
		t.Fatal("clusters share a staging arena")
	}
}

func TestMemcpyAsyncStillWorks(t *testing.T) {
	c, eng := newTestCluster(t, 1)
	dev := c.Devices[0]
	src := AllocBuffer[float64](dev, 8)
	dst := AllocBuffer[float64](dev, 8)
	for i := range src.Data() {
		src.Data()[i] = float64(i + 1)
	}
	runMain(t, eng, func(p *sim.Proc) {
		s := dev.DefaultStream()
		s.MemcpyAsync(p, dst.Whole(), src.Whole(), 8)
		s.Synchronize(p)
	})
	for i, v := range dst.Data() {
		if v != float64(i+1) {
			t.Fatalf("dst[%d] = %v", i, v)
		}
	}
}

// TestScratchIsArenaStorageWithoutTheCopy pins what separates Scratch from
// Clone: same arena, same Release, no pass over the source.
func TestScratchIsArenaStorageWithoutTheCopy(t *testing.T) {
	c, _ := newTestCluster(t, 1)
	b := AllocBuffer[float64](c.Devices[0], 100)
	for i := range b.Data() {
		b.Data()[i] = 42
	}
	cl := b.Whole().Clone()
	for i := range cl.m.(*Buffer[float64]).data {
		cl.m.(*Buffer[float64]).data[i] = -1
	}
	cl.Release()

	s := b.View(10, 80).Scratch()
	if s.Len() != 80 || s.Offset() != 0 || s.ElemSize() != 8 || deviceOf(s) != 0 {
		t.Fatalf("scratch shape: len %d off %d elem %d dev %d", s.Len(), s.Offset(), s.ElemSize(), deviceOf(s))
	}
	if st := PoolStats[float64](c); st.Gets != 2 || st.Hits != 1 {
		t.Fatalf("scratch did not reuse the released clone's storage: %+v", st)
	}
	// The recycled storage still holds what the clone left there, or in the
	// race build the arena's NaN poison: nothing copied the source over it.
	got := s.m.(*Buffer[float64]).data[0]
	want, ok := "the clone's -1", got == -1
	if raceEnabled {
		want, ok = "the race build's NaN poison", math.IsNaN(got)
	}
	if !ok {
		t.Fatalf("scratch[0] = %v, want %s: Scratch touched its storage", got, want)
	}
	s.Release()
	if st := PoolStats[float64](c); st.Puts != 2 || st.Gets != st.Puts+st.Drops {
		t.Fatalf("after release: %+v", st)
	}
	if !(View{}).Scratch().IsZero() {
		t.Fatal("Scratch of the zero view is not the zero view")
	}
}

// TestBufferResolvesItsPoolOnce pins the lookup the data path no longer
// repeats: a buffer finds its cluster's arena on its first clone, its clones
// inherit it, and releasing them needs no lookup at all.
func TestBufferResolvesItsPoolOnce(t *testing.T) {
	c, _ := newTestCluster(t, 1)
	b := AllocBuffer[float64](c.Devices[0], 16)
	if b.pool != nil {
		t.Fatal("pool resolved before first use")
	}
	cl := b.Whole().Clone()
	if b.pool != poolFor[float64](c) || cl.m.(*Buffer[float64]).pool != b.pool {
		t.Fatal("clone did not inherit the cluster's arena")
	}
	again := cl.Clone()
	if again.m.(*Buffer[float64]).pool != b.pool {
		t.Fatal("clone of a clone lost the arena")
	}
	again.Release()
	cl.Release()

	// A buffer outside any cluster still clones, through the heap.
	loose := AllocBuffer[float64](nil, 4)
	loose.Whole().Clone().Release()
}

// TestUninitStaysOutOfStaging pins why an Uninit buffer is marked lent: it
// is a piece of the arena's payload slab, and a clone of it resolves its
// pool, yet Release must not file the piece under a staging class (here
// 64 elements, exactly one), where a later Get would hand out slab memory
// that the next launch carves for a payload vector too.
func TestUninitStaysOutOfStaging(t *testing.T) {
	c, _ := newTestCluster(t, 1)
	b := Alloc[float64](c.Devices[0], 64, Uninit)
	clear(b.Data())
	b.Whole().Clone().Release()
	p := poolFor[float64](c)
	c.Release()
	if b.data != nil {
		t.Fatal("Release left the Uninit buffer's data in place")
	}
	if st := p.Stats(); st.Puts != 1 || st.Pooled != 1 {
		t.Fatalf("after Release the staging classes hold %d slices from %d Puts, want the clone's one", st.Pooled, st.Puts)
	}
}
