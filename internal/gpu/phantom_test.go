package gpu

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// Tests for phantom allocations: between phantoms every data operation is a
// no-op that touches neither memory nor the arena; anything that would need a
// phantom's contents panics and names the allocation.

// other is an element type different from T, for the mismatched-type traps.
func other[T Elem](dev *Device, n int) View {
	var z T
	if _, ok := any(z).(float64); ok {
		return allocPhantom[float32](dev, n).Whole()
	}
	return allocPhantom[float64](dev, n).Whole()
}

func phantomTraps[T Elem](t *testing.T) {
	var z T
	elem := fmt.Sprintf("%T", z)
	c, _ := newTestCluster(t, 2)
	dev := c.Devices[1]
	ph := allocPhantom[T](dev, 8)
	real := AllocBuffer[T](dev, 8)
	name := fmt.Sprintf("phantom %s[8] on gpu1", elem)

	traps := []struct {
		what string
		fn   func()
		want string // substring of the panic message
	}{
		{"Data", func() { ph.Data() }, "Data() of " + name},
		{"Copy phantom<-real", func() { Copy(ph.Whole(), real.Whole(), 8) }, name},
		{"Copy real<-phantom", func() { Copy(real.Whole(), ph.Whole(), 8) }, name},
		{"Reduce phantom<-real", func() { Reduce(ph.Whole(), real.Whole(), 8, ReduceSum) }, name},
		{"Reduce real<-phantom", func() { Reduce(real.Whole(), ph.Whole(), 8, ReduceSum) }, name},
		{"Combine phantom<-phantom,real", func() { Combine(ph.Whole(), ph.Whole(), real.Whole(), 8, ReduceMax) }, name},
		{"Combine real<-real,phantom", func() { Combine(real.Whole(), real.Whole(), ph.Whole(), 8, ReduceMax) }, name},
		{"ReduceAll real<-real,phantom", func() {
			ReduceAll(real.Whole(), []View{real.Whole(), ph.Whole()}, 8, ReduceSum)
		}, name},
		{"Copy phantom<-clone of real", func() { Copy(ph.Whole(), real.Whole().Clone(), 8) }, name},
		{"Copy between phantoms of two element types", func() { Copy(ph.Whole(), other[T](dev, 8), 8) }, name},
		{"Copy beyond a phantom view", func() { Copy(ph.Whole(), ph.View(0, 4), 8) }, "exceeds views"},
		{"View out of bounds", func() { ph.View(4, 5) }, "out of buffer of 8"},
		{"View negative offset", func() { ph.View(-1, 2) }, "out of buffer of 8"},
		{"Slice out of bounds", func() { ph.View(2, 4).Slice(1, 4) }, "out of view of 4"},
		{"Release of a partial phantom view", func() { ph.View(0, 4).Release() }, "Release of partial view"},
		{"Release of a partial phantom clone", func() { ph.Whole().Clone().Slice(0, 4).Release() }, "Release of partial view"},
	}
	for _, tr := range traps {
		t.Run(tr.what, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, tr.want) {
					t.Fatalf("panic %q does not mention %q", msg, tr.want)
				}
			}()
			tr.fn()
		})
	}
}

func TestPhantomTraps(t *testing.T) {
	t.Run("float32", phantomTraps[float32])
	t.Run("float64", phantomTraps[float64])
	t.Run("uint64", phantomTraps[uint64])
}

func phantomMovesNothing[T Elem](t *testing.T) {
	c, _ := newTestCluster(t, 2)
	dev := c.Devices[1]
	const n = 1 << 40 // terabytes nobody backs
	a, b, d := allocPhantom[T](dev, n), allocPhantom[T](dev, n), allocPhantom[T](dev, n)
	if a.ph == nil || a.Len() != n || a.dev != dev {
		t.Fatalf("phantom reports ph=%v Len=%d Device=%v", a.ph, a.Len(), a.dev)
	}
	w := a.Whole()
	var z T
	if w.Len() != n || w.ElemSize() != sizeOf(z) || w.Bytes() != int64(n)*int64(sizeOf(z)) || deviceOf(w) != 1 {
		t.Fatalf("whole view: len %d elem %d bytes %d device %d", w.Len(), w.ElemSize(), w.Bytes(), deviceOf(w))
	}

	Copy(a.Whole(), b.Whole(), n)
	Copy(a.View(n/2, n/2), b.View(0, n/2), n/2)
	Reduce(a.Whole(), b.Whole(), n, ReduceSum)
	Combine(d.Whole(), a.Whole(), b.Whole(), n, ReduceMin)
	ReduceAll(a.Whole(), []View{a.Whole(), b.Whole(), d.Whole()}, n, ReduceSum)
	ReduceAll(a.Whole(), []View{b.Whole(), a.Whole()}, n, ReduceSum) // aliasing: folds in (phantom) scratch

	cl := a.View(3, n-3).Clone()
	sc := a.View(0, 5).Scratch()
	if cl.Len() != n-3 || cl.Offset() != 0 || sc.Len() != 5 || cl.SameBuffer(a.Whole()) || deviceOf(cl) != 1 {
		t.Fatalf("clone len %d off %d, scratch len %d", cl.Len(), cl.Offset(), sc.Len())
	}
	Copy(cl, a.View(0, n-3), n-3) // a clone of a phantom is a phantom
	cl.Release()
	sc.Release()
	a.Whole().Release() // accepted, and a phantom has nothing to poison
	Copy(a.Whole(), b.Whole(), n)

	if st := PoolStats[T](c); st.Gets != 0 || st.Puts != 0 {
		t.Errorf("phantom staging touched the arena: %+v", st)
	}
}

func TestPhantomMovesNothing(t *testing.T) {
	t.Run("float32", phantomMovesNothing[float32])
	t.Run("float64", phantomMovesNothing[float64])
	t.Run("uint64", phantomMovesNothing[uint64])
}

// TestPhantomAllocatesNothing: an 8 GiB phantom and a clone of it cost three
// small headers, whatever their length.
func TestPhantomAllocatesNothing(t *testing.T) {
	c, _ := newTestCluster(t, 1)
	const rounds = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		big := allocPhantom[float64](c.Devices[0], 1<<30)
		big.Whole().Clone().Release()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > 256 {
		t.Errorf("an 8 GiB phantom and its clone allocated %d bytes", per)
	}
}
