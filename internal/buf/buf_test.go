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
