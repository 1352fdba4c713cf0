package buf

import "testing"

func TestClassRounding(t *testing.T) {
	cases := []struct{ n, size int }{
		{0, 8}, {1, 8}, {8, 8}, {9, 16}, {16, 16}, {17, 32},
		{255, 256}, {256, 256}, {257, 512}, {1 << 20, 1 << 20},
	}
	var p Pool[struct{}] // zero-size elements: capacity costs nothing
	for _, c := range cases {
		if got := cap(p.Get(c.n)); got != c.size {
			t.Errorf("cap(Get(%d)) = %d, want %d", c.n, got, c.size)
		}
	}
	// Beyond the largest class the request passes through unrounded.
	huge := (minClassLen << (numClasses - 1)) + 1
	if got := cap(p.Get(huge)); got != huge {
		t.Errorf("cap(Get(%d)) = %d, want pass-through", huge, got)
	}
}

func TestGetPutReuse(t *testing.T) {
	var p Pool[float64]
	a := p.Get(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("Get(100): len %d cap %d, want 100/128", len(a), cap(a))
	}
	p.Put(a)
	b := p.Get(128) // same class: must reuse a's storage
	if len(b) != 128 || &b[0] != &a[0] {
		t.Fatal("Put/Get did not recycle the slice")
	}
	st := p.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutDropsForeignAndOversize(t *testing.T) {
	var p Pool[int32]
	p.Put(make([]int32, 100)) // cap 100 is not a class size
	huge := p.Get((minClassLen << (numClasses - 1)) + 1)
	p.Put(huge) // oversize: bypasses the pool both ways
	st := p.Stats()
	if st.Puts != 0 || st.Drops != 2 || st.Pooled != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPerClassCapBoundsRetention(t *testing.T) {
	var p Pool[byte]
	for i := 0; i < perClassCap+50; i++ {
		p.Put(make([]byte, 64))
	}
	st := p.Stats()
	if st.Pooled != perClassCap || st.Drops != 50 {
		t.Fatalf("stats = %+v, want %d pooled / 50 drops", st, perClassCap)
	}
}

func TestGetSteadyStateDoesNotAllocate(t *testing.T) {
	var p Pool[float64]
	warm := make([][]float64, 16)
	avg := testing.AllocsPerRun(100, func() {
		for i := range warm {
			warm[i] = p.Get(200)
		}
		for i := range warm {
			p.Put(warm[i])
		}
	})
	if avg > 0.05 {
		t.Errorf("steady-state Get/Put allocates %.2f allocs/run, want 0", avg)
	}
}

func TestTakeCarvesSlabsAndTrimKeepsOneFootprint(t *testing.T) {
	var p Pool[float64]
	p.Reset()
	a := p.Take(100) // no slab yet: one of 125
	b := p.Take(25)
	if len(a) != 100 || cap(a) != 100 || len(b) != 25 || len(p.slabs) != 1 || cap(p.slabs[0]) != 125 {
		t.Fatalf("Take: len %d cap %d, len %d, %d slabs", len(a), cap(a), len(b), len(p.slabs))
	}
	if &a[0] != &p.slabs[0][0] || &b[0] != &p.slabs[0][100] {
		t.Fatal("the second Take was not carved right after the first")
	}
	c := p.Take(8) // the slab is full: a second one, of all 133 taken and a quarter
	if len(p.slabs) != 2 || cap(p.slabs[1]) != 133+133/4 || &c[0] != &p.slabs[1][0] {
		t.Fatalf("after the first slab filled: %d slabs", len(p.slabs))
	}
	p.Trim()
	p.Reset()
	// The next launch carves the smallest slab with room, and a window of
	// small vectors from the room a long one left.
	if again := p.Take(50); &again[0] != &a[0] {
		t.Fatal("Take(50) did not carve the 125-element slab")
	}
	if again := p.Take(75); &again[0] != &a[50] {
		t.Fatal("Take(75) was not carved right after Take(50)")
	}
	if again := p.Take(10); &again[0] != &c[0] {
		t.Fatal("Take(10) did not carve the second slab")
	}
	// A launch that draws on one slab only keeps that one; one that takes
	// less than a quarter of what the pool holds keeps nothing.
	p.Trim()
	p.Reset()
	p.Take(100)
	p.Trim()
	if len(p.slabs) != 1 || cap(p.slabs[0]) != 125 {
		t.Fatalf("after a launch that drew on one slab the pool holds %d", len(p.slabs))
	}
	p.Reset()
	p.Take(31)
	p.Trim()
	if len(p.slabs) != 0 {
		t.Fatalf("a launch taking under a quarter left %d slabs", len(p.slabs))
	}
}
