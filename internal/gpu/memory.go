// Package gpu implements the simulated GPU runtime: devices, typed device
// memory, in-order streams, events, and kernels. It plays the role of the
// CUDA/HIP runtime that UNICONN's vendor-agnostic macros expand to.
//
// Streams are simulated processes executing enqueued operations in order in
// virtual time; kernels carry both a functional payload (real Go code, so
// solvers compute genuine numerics) and a cost model (so virtual time is
// meaningful at full problem scale even when the payload is elided).
package gpu

import (
	"fmt"
	"reflect"

	"repro/internal/buf"
)

// Elem constrains the element types usable in device buffers, mirroring the
// native datatypes UNICONN's type templates cover.
type Elem interface {
	~int32 | ~int64 | ~uint32 | ~uint64 | ~float32 | ~float64
}

// ReduceOp is a reduction operator for collectives.
type ReduceOp int

// Supported reduction operators.
const (
	ReduceSum ReduceOp = iota
	ReduceProd
	ReduceMin
	ReduceMax
)

func (o ReduceOp) String() string {
	switch o {
	case ReduceSum:
		return "sum"
	case ReduceProd:
		return "prod"
	case ReduceMin:
		return "min"
	case ReduceMax:
		return "max"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(o))
	}
}

// mem is the type-erased face of a typed device buffer. Communication layers
// move data through mem without knowing element types.
type mem interface {
	elemSize() int
	length() int
	copyFrom(src mem, dstOff, srcOff, n int)
	reduceFrom(src mem, dstOff, srcOff, n int, op ReduceOp)
	combineFrom(a, b mem, dstOff, aOff, bOff, n int, op ReduceOp)
	clone(off, n int) mem
	scratch(n int) mem
	recycle()
}

// Buffer is a typed allocation in one device's memory.
type Buffer[T Elem] struct {
	dev  *Device
	data []T
	// pool is the owning cluster's staging arena for T, resolved on the
	// buffer's first scratch/clone and inherited by the buffers drawn from
	// it, so the steady-state data path never revisits the cluster's
	// type-keyed pool table. Nil for a buffer with no cluster.
	pool *buf.Pool[T]
	// ph, when non-nil, makes this a phantom allocation (Alloc of Phantom): data
	// stays nil and every view of the buffer is a view of ph.
	ph *phantom
	// lent marks an Uninit allocation: its data is a piece of one of pool's
	// payload slabs, which go back whole when the launch ends
	// (Cluster.Release), so recycle must not hand it to a staging class even
	// after a clone of the buffer has resolved pool.
	lent bool
}

// Storage is how an allocation is backed.
type Storage uint8

const (
	// Zeroed storage is zeroed when allocated and owned by the garbage
	// collector, so it lives as long as something holds it (AllocBuffer).
	Zeroed Storage = iota
	// Uninit storage is drawn unzeroed from the launch's arena, as
	// cudaMalloc's is, and lives until the launch ends (Cluster.Release):
	// then it goes back to the arena and Data on the buffer panics. Its
	// first reader must be something that wrote it. On a device with no
	// cluster, or one whose cluster has been released, it is Zeroed.
	Uninit
	// Phantom storage is a length and no bytes (see phantom).
	Phantom
)

// Alloc allocates n elements on the device, backed as s says.
func Alloc[T Elem](dev *Device, n int, s Storage) *Buffer[T] {
	switch s {
	case Phantom:
		return allocPhantom[T](dev, n)
	case Uninit:
		if p := poolFor[T](dev.cluster); p != nil {
			b := &Buffer[T]{dev: dev, data: p.Take(n), pool: p, lent: true}
			dev.cluster.arena.lent = append(dev.cluster.arena.lent, b)
			return b
		}
	}
	return AllocBuffer[T](dev, n)
}

// AllocBuffer allocates n zeroed elements on the device.
func AllocBuffer[T Elem](dev *Device, n int) *Buffer[T] {
	return &Buffer[T]{dev: dev, data: make([]T, n)}
}

// Data exposes the underlying storage (host-mapped view; in the simulation
// host and device share an address space). A phantom has none, and neither
// has an Uninit buffer after its launch ended: asking for it panics.
func (b *Buffer[T]) Data() []T {
	if b.data == nil {
		panic(noData{b})
	}
	return b.data
}

// Len reports the element count.
func (b *Buffer[T]) Len() int {
	if b.ph != nil {
		return b.ph.n
	}
	return len(b.data)
}

// String names the allocation — element type, length, device, and whether it
// is a phantom — for the panics of operations that cannot combine two buffers.
func (b *Buffer[T]) String() string {
	if b.ph != nil {
		return b.ph.String()
	}
	var z T
	return fmt.Sprintf("%T[%d] on gpu%d", z, len(b.data), b.deviceID())
}

// View selects [off, off+n) of the buffer for a communication operation.
func (b *Buffer[T]) View(off, n int) View {
	if off < 0 || n < 0 || off+n > b.Len() {
		panic(fmt.Sprintf("gpu: view [%d,%d) out of buffer of %d", off, off+n, b.Len()))
	}
	if b.ph != nil {
		return View{m: b.ph, off: off, n: n}
	}
	return View{m: b, off: off, n: n}
}

// Whole views the entire buffer.
func (b *Buffer[T]) Whole() View {
	if b.ph != nil {
		return View{m: b.ph, n: b.ph.n}
	}
	return View{m: b, n: len(b.data)}
}

func (b *Buffer[T]) elemSize() int { var z T; return int(sizeOf(z)) }
func (b *Buffer[T]) length() int   { return len(b.data) }
func (b *Buffer[T]) deviceID() int {
	if b.dev == nil {
		return -1
	}
	return b.dev.id
}

func (b *Buffer[T]) copyFrom(src mem, dstOff, srcOff, n int) {
	s, ok := src.(*Buffer[T])
	if !ok {
		panic(fmt.Sprintf("gpu: copy between mismatched buffers (%v vs %v)", b, src))
	}
	copy(b.data[dstOff:dstOff+n], s.data[srcOff:srcOff+n])
}

// scratch returns a detached buffer of n elements on b's device with
// unspecified contents. The storage comes from the owning cluster's staging
// arena when one is available: staging buffers (eager sends, rendezvous
// snapshots, exchange scratch) are throwaways, so their storage is pooled.
// Their Buffer header is not: each call allocates one, the bulk of the
// objects a small-message collective allocates. The pool returns unzeroed
// storage, so the caller must overwrite all n elements before reading any.
func (b *Buffer[T]) scratch(n int) mem {
	if b.pool == nil && b.dev != nil {
		b.pool = poolFor[T](b.dev.cluster)
	}
	if b.pool == nil {
		return &Buffer[T]{dev: b.dev, data: make([]T, n)}
	}
	return &Buffer[T]{dev: b.dev, data: b.pool.Get(n), pool: b.pool}
}

// clone copies [off, off+n) into a detached scratch buffer.
func (b *Buffer[T]) clone(off, n int) mem {
	c := b.scratch(n).(*Buffer[T])
	copy(c.data, b.data[off:off+n])
	return c
}

// recycle returns the buffer's storage to the arena it was drawn from and
// poisons the buffer. Scratch buffers and clones are recycled via
// View.Release, Uninit allocations when their launch ends (their slabs go
// back whole, so only the poison applies); the nil data acts as a
// use-after-release trap.
func (b *Buffer[T]) recycle() {
	if b.pool != nil && b.data != nil && !b.lent {
		b.pool.Put(b.data)
	}
	b.data = nil
}

func (b *Buffer[T]) reduceFrom(src mem, dstOff, srcOff, n int, op ReduceOp) {
	s, ok := src.(*Buffer[T])
	if !ok {
		panic(fmt.Sprintf("gpu: reduce between mismatched buffers (%v vs %v)", b, src))
	}
	d := b.data[dstOff : dstOff+n]
	combine(d, d, s.data[srcOff:srcOff+n], op)
}

func (b *Buffer[T]) combineFrom(a, v mem, dstOff, aOff, vOff, n int, op ReduceOp) {
	ab, aok := a.(*Buffer[T])
	vb, vok := v.(*Buffer[T])
	if !aok || !vok {
		panic(fmt.Sprintf("gpu: combine between mismatched buffers (%v, %v, %v)", b, a, v))
	}
	combine(b.data[dstOff:dstOff+n], ab.data[aOff:aOff+n], vb.data[vOff:vOff+n], op)
}

// combine sets d[i] = x[i] op y[i] for each i in turn (x may be d: a
// reduction in place), four elements a step; x and y are as long as d.
func combine[T Elem](d, x, y []T, op ReduceOp) {
	x, y = x[:len(d)], y[:len(d)]
	i := 0
	switch op {
	case ReduceSum:
		for ; i+4 <= len(d); i += 4 {
			d[i] = x[i] + y[i]
			d[i+1] = x[i+1] + y[i+1]
			d[i+2] = x[i+2] + y[i+2]
			d[i+3] = x[i+3] + y[i+3]
		}
		for ; i < len(d); i++ {
			d[i] = x[i] + y[i]
		}
	case ReduceProd:
		for ; i+4 <= len(d); i += 4 {
			d[i] = x[i] * y[i]
			d[i+1] = x[i+1] * y[i+1]
			d[i+2] = x[i+2] * y[i+2]
			d[i+3] = x[i+3] * y[i+3]
		}
		for ; i < len(d); i++ {
			d[i] = x[i] * y[i]
		}
	case ReduceMin:
		for ; i+4 <= len(d); i += 4 {
			d[i] = lesser(x[i], y[i])
			d[i+1] = lesser(x[i+1], y[i+1])
			d[i+2] = lesser(x[i+2], y[i+2])
			d[i+3] = lesser(x[i+3], y[i+3])
		}
		for ; i < len(d); i++ {
			d[i] = lesser(x[i], y[i])
		}
	case ReduceMax:
		for ; i+4 <= len(d); i += 4 {
			d[i] = greater(x[i], y[i])
			d[i+1] = greater(x[i+1], y[i+1])
			d[i+2] = greater(x[i+2], y[i+2])
			d[i+3] = greater(x[i+3], y[i+3])
		}
		for ; i < len(d); i++ {
			d[i] = greater(x[i], y[i])
		}
	default:
		panic("gpu: unknown reduce op")
	}
}

// lesser is y if y < x, else x: a tie or an unordered pair keeps x.
func lesser[T Elem](x, y T) T {
	if y < x {
		return y
	}
	return x
}

// greater is y if y > x, else x.
func greater[T Elem](x, y T) T {
	if y > x {
		return y
	}
	return x
}

// sizeOf reports the byte size of an element (covers named types with
// underlying kinds permitted by Elem).
func sizeOf(v any) int { return int(reflect.TypeOf(v).Size()) }

// View is a type-erased window [off, off+n) into a typed device buffer.
// The zero View is "nil" and valid only where documented (e.g. signal-less
// Post on two-sided backends).
type View struct {
	m   mem
	off int
	n   int
}

// IsZero reports whether the view references no buffer.
func (v View) IsZero() bool { return v.m == nil }

// Len reports the element count of the view.
func (v View) Len() int { return v.n }

// ElemSize reports the element byte size (0 for the zero view).
func (v View) ElemSize() int {
	if v.m == nil {
		return 0
	}
	return v.m.elemSize()
}

// Bytes reports the total byte size of the view (0 for the zero view).
func (v View) Bytes() int64 {
	if v.m == nil {
		return 0
	}
	return int64(v.n) * int64(v.m.elemSize())
}

// Clone snapshots the viewed elements into a detached buffer of the same
// element type. Use it only where a snapshot is semantically required — the
// source may change before the copy is consumed (eager sends, a reduction's
// seeded accumulator). Where the contents would be overwritten
// before being read, Scratch gives the same storage without the copy; where
// a payload is only combined into a destination, Reduce/Combine straight
// from the source need no staging at all. Cloning the zero view returns the
// zero view. A clone's storage comes from its cluster's staging arena;
// callers that know the clone is dead should hand the storage back with
// Release.
func (v View) Clone() View {
	if v.m == nil {
		return View{}
	}
	return View{m: v.m.clone(v.off, v.n), off: 0, n: v.n}
}

// Scratch returns a detached buffer of the view's length and element type
// with unspecified contents: arena storage like a Clone's, minus the copy.
// The caller must overwrite every element before reading any, and should
// Release the buffer once it is dead. Scratch of the zero view is the zero
// view.
func (v View) Scratch() View {
	if v.m == nil {
		return View{}
	}
	return View{m: v.m.scratch(v.n), off: 0, n: v.n}
}

// Release returns a Clone's or Scratch's storage to its cluster's arena and
// poisons the underlying buffer; later access through any view of it will
// fault. Only whole-buffer views may be released — a partial view cannot
// prove the rest of the buffer is dead — and releasing the zero view is a
// no-op. Release is optional: unreleased clones are simply collected.
func (v View) Release() {
	if v.m == nil {
		return
	}
	if v.off != 0 || v.n != v.m.length() {
		panic(fmt.Sprintf("gpu: Release of partial view [%d,%d) of buffer of %d", v.off, v.off+v.n, v.m.length()))
	}
	v.m.recycle()
}

// Offset reports the view's element offset within its buffer.
func (v View) Offset() int { return v.off }

// Slice narrows the view to [off, off+n) relative to the view start.
func (v View) Slice(off, n int) View {
	if off < 0 || n < 0 || off+n > v.n {
		panic(fmt.Sprintf("gpu: subview [%d,%d) out of view of %d", off, off+n, v.n))
	}
	return View{m: v.m, off: v.off + off, n: n}
}

// SameBuffer reports whether two views alias the same underlying buffer.
func (v View) SameBuffer(o View) bool { return v.m == o.m }

// Overlaps reports whether two views share at least one element.
func (v View) Overlaps(o View) bool {
	return v.m != nil && v.m == o.m && v.n > 0 && o.n > 0 && v.off < o.off+o.n && o.off < v.off+v.n
}

// Copy copies n elements from src to dst (dst[i] = src[i]). Views must have
// the same element type. Copying a window onto itself is a no-op.
func Copy(dst, src View, n int) {
	if n == 0 {
		return
	}
	if n > dst.n || n > src.n {
		panic(fmt.Sprintf("gpu: copy of %d elements exceeds views (%d, %d)", n, dst.n, src.n))
	}
	if dst.m == src.m && dst.off == src.off {
		return
	}
	dst.m.copyFrom(src.m, dst.off, src.off, n)
}

// Reduce applies dst[i] = op(dst[i], src[i]) elementwise for n elements.
func Reduce(dst, src View, n int, op ReduceOp) {
	if n == 0 {
		return
	}
	if n > dst.n || n > src.n {
		panic(fmt.Sprintf("gpu: reduce of %d elements exceeds views (%d, %d)", n, dst.n, src.n))
	}
	dst.m.reduceFrom(src.m, dst.off, src.off, n, op)
}

// Combine writes dst[i] = op(a[i], b[i]) elementwise for n elements: a
// reduction whose left operand is read from a instead of dst, so seeding dst
// with a copy of a and reducing b into it collapse into one pass. dst may be
// exactly a or exactly b, but must not partially overlap either.
func Combine(dst, a, b View, n int, op ReduceOp) {
	if n == 0 {
		return
	}
	if n > dst.n || n > a.n || n > b.n {
		panic(fmt.Sprintf("gpu: combine of %d elements exceeds views (%d, %d, %d)", n, dst.n, a.n, b.n))
	}
	dst.m.combineFrom(a.m, b.m, dst.off, a.off, b.off, n, op)
}

// ReduceAll writes dst = op(…op(op(srcs[0], srcs[1]), srcs[2])…, srcs[k-1])
// elementwise for n elements, folding in slice order so floating-point
// results do not depend on where they accumulate. It accumulates in dst
// itself, so dst may alias srcs[0]; when dst aliases a later source — which
// would be overwritten before it is consumed — the fold runs in scratch
// instead.
func ReduceAll(dst View, srcs []View, n int, op ReduceOp) {
	acc := dst
	for _, s := range srcs[1:] {
		if dst.Overlaps(s) {
			acc = dst.Slice(0, n).Scratch()
			break
		}
	}
	Copy(acc, srcs[0], n)
	for _, s := range srcs[1:] {
		Reduce(acc, s, n, op)
	}
	if !acc.SameBuffer(dst) {
		Copy(dst, acc, n)
		acc.Release()
	}
}
