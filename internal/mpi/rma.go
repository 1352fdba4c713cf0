package mpi

// One-sided (RMA) communication. The paper notes that GPU-aware MPI has a
// mature one-sided API whose integration into UNICONN is future work
// (§V-A); this file implements that substrate so the extension can be
// exercised: window creation over device buffers, Put/Get/Accumulate, and
// both active-target (Fence) and passive-target (Lock/Unlock) epochs.
//
// Semantics follow MPI-3 RMA with a GPUDirect-style data path: transfers
// move GPU-to-GPU across the fabric; local/remote completion is deferred to
// the closing synchronization call, and operations inside one epoch may
// proceed concurrently.

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Win is a window handle owned by one rank, exposing a region of its device
// memory to one-sided access by the communicator's members.
type Win struct {
	comm *Comm
	obj  *winObject
}

// winObject is the communicator-wide shared window state.
type winObject struct {
	id      uint64
	regions []gpu.View // per rank
	// pending one-sided operations issued by each origin rank in the
	// current epoch (indexed by origin).
	pending []([]*sim.Gate)
	fence   *sim.Rendezvous
	locks   []*sim.Semaphore // per target rank, passive-target exclusive
}

// winShared matches collective WinCreate calls across ranks.
type winShared struct {
	seq  uint64
	objs map[uint64]*winObject
}

// WinCreate exposes region for one-sided access. Every rank of the
// communicator must call it collectively with its local region (regions may
// differ in size). It synchronizes like a barrier.
func (c *Comm) WinCreate(p *sim.Proc, region gpu.View) *Win {
	w := c.ep.world
	if w.wins == nil {
		w.wins = &winShared{objs: map[uint64]*winObject{}}
	}
	// Window identity: per-rank creation sequence (collective order).
	c.ep.winSeq++
	id := c.ep.winSeq
	obj := w.wins.objs[id]
	n := c.Size()
	if obj == nil {
		obj = &winObject{
			id:      id,
			regions: make([]gpu.View, n),
			pending: make([][]*sim.Gate, n),
			fence:   sim.NewRendezvous(fmt.Sprintf("win%d.fence", id), n),
		}
		for r := 0; r < n; r++ {
			obj.locks = append(obj.locks, sim.NewSemaphore(fmt.Sprintf("win%d.lock%d", id, r), 1))
		}
		w.wins.objs[id] = obj
	}
	obj.regions[c.rank] = region
	c.Barrier(p)
	return &Win{comm: c, obj: obj}
}

// Free releases the window collectively.
func (win *Win) Free(p *sim.Proc) {
	win.comm.Barrier(p)
	delete(win.comm.ep.world.wins.objs, win.obj.id)
}

// target resolves the exposed region of a communicator rank.
func (win *Win) target(rank int) gpu.View {
	v := win.obj.regions[rank]
	if v.IsZero() {
		panic(fmt.Sprintf("mpi: rank %d exposed no region in window %d", rank, win.obj.id))
	}
	return v
}

// rmaTransfer schedules a one-sided data movement and registers it in the
// origin's epoch; apply runs at delivery time.
func (win *Win) rmaTransfer(p *sim.Proc, origin, srcRank, dstRank int, bytes int64, apply func()) {
	c := win.comm
	prof := c.profile()
	p.Advance(prof.CallOverhead)
	w := c.ep.world
	eng := w.cluster.Eng
	srcW, dstW := c.group[srcRank], c.group[dstRank]
	path := w.cluster.Fabric.PathBetween(srcW, dstW)
	cost := w.cluster.Model.Cost(machine.LibMPI, machine.APIHost, path, bytes)
	arrive := w.cluster.Fabric.Transfer(p.Now(), srcW, dstW, bytes, cost)
	done := sim.NewGate(fmt.Sprintf("win%d rma %d->%d", win.obj.id, srcW, dstW))
	eng.After(arrive.Sub(eng.Now()), func() {
		apply()
		done.Fire(eng)
	})
	win.obj.pending[origin] = append(win.obj.pending[origin], done)
}

// Put writes n elements of src into the target rank's window at offset
// targetOff. Completion is deferred to the closing Fence/Unlock.
func (win *Win) Put(p *sim.Proc, src gpu.View, n int, target, targetOff int) {
	dst := win.target(target).Slice(targetOff, n)
	staged := src.Slice(0, n).Clone() // origin buffer reusable immediately
	win.rmaTransfer(p, win.comm.rank, win.comm.rank, target, staged.Bytes(), func() {
		gpu.Copy(dst, staged, n)
		staged.Release()
	})
}

// Get reads n elements from the target rank's window at targetOff into dst.
func (win *Win) Get(p *sim.Proc, dst gpu.View, n int, target, targetOff int) {
	src := win.target(target).Slice(targetOff, n)
	// Request flight to the target, then the payload flows back.
	prof := win.comm.profile()
	p.Advance(prof.Intra.Alpha / 2)
	win.rmaTransfer(p, win.comm.rank, target, win.comm.rank, dst.Slice(0, n).Bytes(), func() {
		gpu.Copy(dst, src, n)
	})
}

// Accumulate applies src elementwise into the target window region with the
// reduction operator (MPI_Accumulate). Ordering between accumulates to the
// same target within an epoch follows delivery order, which the fabric
// keeps FIFO per pair.
func (win *Win) Accumulate(p *sim.Proc, src gpu.View, n int, target, targetOff int, op gpu.ReduceOp) {
	dst := win.target(target).Slice(targetOff, n)
	staged := src.Slice(0, n).Clone()
	win.rmaTransfer(p, win.comm.rank, win.comm.rank, target, staged.Bytes(), func() {
		gpu.Reduce(dst, staged, n, op)
		staged.Release()
	})
}

// completeLocal waits for every operation this origin issued in the epoch.
func (win *Win) completeLocal(p *sim.Proc) {
	me := win.comm.rank
	for _, g := range win.obj.pending[me] {
		g.Wait(p)
	}
	win.obj.pending[me] = nil
}

// Fence closes the current active-target epoch and opens the next: it
// completes all locally-issued operations, then synchronizes all ranks so
// every operation targeting anyone is also complete (MPI_Win_fence).
func (win *Win) Fence(p *sim.Proc) {
	win.completeLocal(p)
	win.obj.fence.Arrive(p)
}

// Lock opens a passive-target exclusive epoch on one target rank.
func (win *Win) Lock(p *sim.Proc, target int) {
	win.obj.locks[target].Acquire(p)
	// Lock acquisition costs one control round trip.
	p.Advance(win.comm.profile().Intra.Alpha)
}

// Unlock completes all operations issued in the passive epoch and releases
// the target.
func (win *Win) Unlock(p *sim.Proc, target int) {
	win.completeLocal(p)
	win.obj.locks[target].Release(p.Engine())
}
