package core

import (
	"repro/internal/gpu"
	"repro/internal/gpushmem"
)

// Point-to-point primitives (paper §IV-F2). Post and Acknowledge are
// UNICONN's two-sided-and-one-sided bridge: Post carries both the send
// buffer and the receiver's buffer address (ignored by two-sided backends),
// plus a signal location/value pair (used by one-sided backends); the
// semantics of the underlying backend are preserved:
//
//   - MPI:     Post → MPI_Send/MPI_Isend, Acknowledge → MPI_Recv/MPI_Irecv;
//     completion is synchronized between the two sides.
//   - GPUCCL:  Post → ncclSend, Acknowledge → ncclRecv on the stream;
//     grouped inside CommStart/CommEnd.
//   - GPUSHMEM: Post → PutWithSignal, Acknowledge → WaitSignal; completion
//     stays asynchronous between GPUs.

// Ptr is a typed pointer into a UNICONN allocation, the analogue of the
// paper's raw `T* + offset` arguments (e.g. A_buf + nx).
type Ptr[T gpu.Elem] struct {
	m   *Mem[T]
	off int
}

// At returns a pointer offset elements into the allocation.
func (m *Mem[T]) At(off int) Ptr[T] { return Ptr[T]{m: m, off: off} }

// Base returns a pointer to the start of the allocation.
func (m *Mem[T]) Base() Ptr[T] { return Ptr[T]{m: m} }

// Add offsets the pointer (p + k).
func (p Ptr[T]) Add(k int) Ptr[T] { return Ptr[T]{m: p.m, off: p.off + k} }

// View resolves n elements at the pointer as a device view.
func (p Ptr[T]) View(n int) gpu.View { return p.m.View(p.off, n) }

// IsNil reports whether the pointer references no allocation (the nullptr
// argument of the paper's PartialDevice Post).
func (p Ptr[T]) IsNil() bool { return p.m == nil }

func (p Ptr[T]) symRef(n int) gpushmem.SymRef { return p.m.symRef(p.off, n) }

// uniconnMPITag is the reserved tag for UNICONN's own P2P traffic.
const uniconnMPITag = 0x5C

// Post sends count elements at send to peer (paper Listing 7 line 2). recv
// names the destination in the peer's symmetric memory (one-sided backends);
// sig/sigVal notify the peer's Acknowledge. Two-sided backends ignore recv
// and sig on the sender side. Within CommStart/CommEnd the operation is
// non-blocking; otherwise it blocks per the backend's semantics.
//
// In PartialDevice mode the payload has already been sent from the kernel
// (DevPost); the host-side Post completes those transfers and delivers only
// the signal.
func Post[T gpu.Elem](c *Coordinator, send, recv Ptr[T], count int, sig Signal, sigVal uint64, peer int, comm *Communicator) {
	env := c.env
	env.dispatch()
	comm.check()
	switch env.Backend() {
	case MPIBackend:
		if c.grouping {
			c.mpiReqs = append(c.mpiReqs, comm.mpic.Isend(env.p, send.View(count), peer, uniconnMPITag))
			return
		}
		c.mpiStreamGuard()
		comm.mpic.Send(env.p, send.View(count), peer, uniconnMPITag)
	case GpucclBackend:
		comm.cclc.Send(env.p, c.stream, send.View(count), peer)
	default: // GPUSHMEM
		pe := comm.pe
		target := comm.worldOf(peer)
		if c.mode == PartialDevice {
			// Payload moved in-kernel: complete it (once per group), then
			// signal.
			if !c.grouping || !c.pdQuietDone {
				pe.QuietOnStream(env.p, c.stream)
				c.pdQuietDone = true
			}
			pe.PutSignalOnStream(env.p, c.stream, recv.symRef(0), gpu.View{}, 0,
				sig.sigRef(), sigVal, gpushmem.SignalSet, target)
			return
		}
		pe.PutSignalOnStream(env.p, c.stream, recv.symRef(count), send.View(count), count,
			sig.sigRef(), sigVal, gpushmem.SignalSet, target)
	}
}

// Acknowledge completes the receive side of a Post (paper Listing 7 line
// 3): two-sided backends receive count elements into recv; one-sided
// backends wait until the local signal reaches sigVal.
func Acknowledge[T gpu.Elem](c *Coordinator, recv Ptr[T], count int, sig Signal, sigVal uint64, peer int, comm *Communicator) {
	env := c.env
	env.dispatch()
	comm.check()
	switch env.Backend() {
	case MPIBackend:
		if c.grouping {
			c.mpiReqs = append(c.mpiReqs, comm.mpic.Irecv(env.p, recv.View(count), peer, uniconnMPITag))
			return
		}
		// Blocking small-message receives interleave stream queries with
		// communication progress; the paper measures this as the largest
		// source of UNICONN-over-MPI variability (§VI-B).
		c.mpiStreamGuard()
		if int64(count)*int64(recv.View(count).ElemSize()) <= env.uniconn().SmallAckMax {
			env.p.Advance(env.uniconn().SmallAckPenalty)
		}
		comm.mpic.Recv(env.p, recv.View(count), peer, uniconnMPITag)
	case GpucclBackend:
		comm.cclc.Recv(env.p, c.stream, recv.View(count), peer)
	default: // GPUSHMEM host and PartialDevice
		comm.pe.SignalWaitOnStream(env.p, c.stream, sig.sigRef(), gpushmem.CmpGE, sigVal)
	}
}
