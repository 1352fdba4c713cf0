package core

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/gpushmem"
)

// Memory management (paper §IV-D): all communication buffers must be
// allocated through the Memory construct, because GPUSHMEM requires a
// symmetric heap. On MPI/GPUCCL the construct allocates ordinary device
// memory.

// Mem is a typed UNICONN allocation on this rank's device. On the GPUSHMEM
// backend the allocation is symmetric: the same logical object exists on
// every PE and can be addressed remotely.
type Mem[T gpu.Elem] struct {
	env *Env
	buf *gpu.Buffer[T]
	sym *gpushmem.Sym[T] // non-nil on the GPUSHMEM backend
}

// Alloc allocates n elements through the backend. On GPUSHMEM it is a
// collective call: every rank must allocate in the same order (the
// symmetric-heap contract). It mirrors Memory<Backend>::Alloc<T>(n).
func Alloc[T gpu.Elem](env *Env, n int) *Mem[T] { return AllocAs[T](env, n, gpu.Zeroed) }

// AllocAs is Alloc of storage s (gpu.Storage): gpu.Phantom for the payload
// vector of a modelled cell, which communication moves by length alone and
// whose Data panics; gpu.Uninit for a payload the rank writes before it
// reads, which lives until the launch ends. The call costs the same virtual
// time whatever s is. Signal arrays and values read back for control flow
// must come from Alloc.
func AllocAs[T gpu.Elem](env *Env, n int, s gpu.Storage) *Mem[T] {
	env.dispatch()
	if env.Backend() == GpushmemBackend {
		sym := gpushmem.MallocAs[T](env.job.shmemWorld.PE(env.rank), n, s)
		return &Mem[T]{env: env, buf: sym.Local(env.rank), sym: sym}
	}
	return &Mem[T]{env: env, buf: gpu.Alloc[T](env.dev, n, s)}
}

// Free releases the allocation (Memory<Backend>::Free). The simulation's
// memory is garbage-collected; Free exists for API fidelity and charges the
// deallocation call.
func (m *Mem[T]) Free() { m.env.dispatch() }

// Data exposes the local elements.
func (m *Mem[T]) Data() []T { return m.buf.Data() }

// Len reports the element count.
func (m *Mem[T]) Len() int { return m.buf.Len() }

// View selects [off, off+n) for a communication operation.
func (m *Mem[T]) View(off, n int) gpu.View { return m.buf.View(off, n) }

// Whole views the entire allocation.
func (m *Mem[T]) Whole() gpu.View { return m.buf.Whole() }

// symRef resolves the symmetric reference for one-sided backends; it panics
// if the allocation is not symmetric.
func (m *Mem[T]) symRef(off, n int) gpushmem.SymRef {
	if m.sym == nil {
		panic("core: buffer was not allocated on the GPUSHMEM backend")
	}
	return m.sym.Ref(off, n)
}

// SymRef exposes the symmetric reference for native-baseline code that
// talks to the GPUSHMEM library directly; UNICONN applications never need
// it (Post resolves references internally).
func (m *Mem[T]) SymRef(off, n int) gpushmem.SymRef { return m.symRef(off, n) }

// SigRefOf exposes the GPUSHMEM signal word behind Sig(m, idx) for
// native-baseline code.
func SigRefOf(m *Mem[uint64], idx int) gpushmem.SigRef { return Sig(m, idx).sigRef() }

// Signal names one element of a uint64 UNICONN allocation used as a
// completion signal for Post/Acknowledge (the paper's sig_loc argument,
// e.g. sync_arr+1).
type Signal struct {
	M   *Mem[uint64]
	Idx int
}

// Sig constructs a Signal reference.
func Sig(m *Mem[uint64], idx int) Signal { return Signal{M: m, Idx: idx} }

// sigRef resolves the GPUSHMEM signal word.
func (s Signal) sigRef() gpushmem.SigRef {
	if s.M == nil {
		panic("core: nil signal")
	}
	if s.M.sym == nil {
		panic("core: signal buffer was not allocated on the GPUSHMEM backend")
	}
	return s.M.sym.SigRef(s.Idx)
}

// memLike is the type-erased face Mem instances share with the coordinator
// (Post/Acknowledge take concrete Mems through generic functions, so only
// string formatting needs this).
type memLike interface{ describe() string }

func (m *Mem[T]) describe() string {
	var z T
	return fmt.Sprintf("Mem[%T](%d)", z, m.Len())
}
