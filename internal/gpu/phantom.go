package gpu

import (
	"fmt"
	"reflect"
)

// phantom is a device allocation with a length, an element type and a device
// but no backing array: the payload of a modelled cell. Such a cell's only
// answer is a virtual time, and the cost model derives that from lengths,
// never from contents, so its payload bytes need not exist. phantom is the
// second implementer of mem: moving data between phantoms is a no-op, staging
// buffers drawn from one are phantoms too (the buf arena is never touched),
// and the typed code that moves real bytes (Buffer's mem methods) knows
// nothing of it. Whatever would need a phantom's contents — Buffer.Data, or an
// operation pairing it with a real buffer — panics naming the allocation: a
// modelled cell that reads its payload is a bug, never a silent zero.
type phantom struct {
	dev  *Device
	n    int
	elem reflect.Type
}

// allocPhantom allocates n elements on the device without backing them
// (Alloc of Phantom storage): nothing is made, zeroed or, later, copied.
// The result is used like any Buffer except that Data panics and its views
// combine only with views of other phantoms of the same element type.
func allocPhantom[T Elem](dev *Device, n int) *Buffer[T] {
	return &Buffer[T]{dev: dev, ph: &phantom{dev: dev, n: n, elem: reflect.TypeFor[T]()}}
}

func (p *phantom) String() string {
	return fmt.Sprintf("phantom %v[%d] on gpu%d", p.elem, p.n, p.deviceID())
}

// noData is the panic value of Buffer.Data on a buffer with no storage: a
// phantom, or an Uninit allocation whose launch has ended. It is an error
// value, formatted only when someone prints it, so that Data stays within
// the inliner's budget for the functional solvers' element loops.
type noData struct{ b fmt.Stringer }

func (e noData) Error() string {
	return fmt.Sprintf("gpu: Data() of %v: a phantom allocation, or an Uninit one whose launch has ended, has no elements to read or write", e.b)
}

func (p *phantom) elemSize() int { return int(p.elem.Size()) }
func (p *phantom) length() int   { return p.n }
func (p *phantom) deviceID() int {
	if p.dev == nil {
		return -1
	}
	return p.dev.id
}

// peer reports whether m is a phantom of p's element type: the only operand
// a phantom combines with.
func (p *phantom) peer(m mem) bool {
	q, ok := m.(*phantom)
	return ok && q.elem == p.elem
}

func (p *phantom) copyFrom(src mem, _, _, _ int) {
	if !p.peer(src) {
		panic(fmt.Sprintf("gpu: copy between mismatched buffers (%v vs %v)", p, src))
	}
}

func (p *phantom) reduceFrom(src mem, _, _, _ int, _ ReduceOp) {
	if !p.peer(src) {
		panic(fmt.Sprintf("gpu: reduce between mismatched buffers (%v vs %v)", p, src))
	}
}

func (p *phantom) combineFrom(a, b mem, _, _, _, _ int, _ ReduceOp) {
	if !p.peer(a) || !p.peer(b) {
		panic(fmt.Sprintf("gpu: combine between mismatched buffers (%v, %v, %v)", p, a, b))
	}
}

// clone and scratch return a fresh phantom (so View.Release's whole-buffer
// rule holds for it as for a real staging buffer); recycle has no storage to
// return.
func (p *phantom) clone(_, n int) mem { return p.scratch(n) }
func (p *phantom) scratch(n int) mem  { return &phantom{dev: p.dev, n: n, elem: p.elem} }
func (p *phantom) recycle()           {}
