package gpu

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"repro/internal/buf"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Cluster is the full set of simulated devices of one job, sharing a
// machine model, a fabric and the one engine every device runs on.
type Cluster struct {
	Eng     *sim.Engine
	Model   *machine.Model
	Fabric  *fabric.Fabric
	Devices []*Device

	// trace, when non-nil, records kernel and stream-operation spans
	// (set it with SetTrace so the fabric is instrumented too).
	trace *trace.Log

	// ComputeFault, when non-nil, scales modeled kernel compute time for a
	// rank's device at a virtual time (fault injection: slow ranks; see
	// internal/faults). It must return >= 1 for degradation, 1 when
	// healthy.
	ComputeFault func(at sim.Time, rank int) float64

	// Metrics, when non-nil, is the run's metrics registry (set it with
	// SetMetrics so the engine and fabric are instrumented too). Backends
	// resolve their instruments from it at construction.
	Metrics *metrics.Registry

	mSlowed   *metrics.Counter // kernels stretched by a slow-rank fault
	mKernels  *metrics.Counter
	mStreamOp *metrics.Counter

	kernelLabels map[string]string // kernel name -> stream-op label (kernelLabel)

	// arena is the launch's staging and payload memory, borrowed from
	// arenas at its first use (poolFor) and handed back by Release. A
	// launch that stages and carves nothing (most modelled cells) never
	// borrows one.
	arena    *arena
	released bool
}

// arena is the memory one launch borrows: a buf.Pool[T] per element type
// (keyed by reflect.Type, resolved through poolFor; an arenaPool wraps each)
// and the Uninit buffers drawn from them. Like the trace log and metrics
// registry, an arena belongs to one cell at a time: parallel sweep cells
// each borrow their own. Neither the map nor the pools are locked: within a
// cell only the ball holder touches them, and PoolStats runs inside the
// engine or after the cell.
type arena struct {
	pools map[reflect.Type]arenaPool
	lent  []mem // Uninit buffers, returned and poisoned by Release
}

// arenaPool is a buf.Pool[T] of any element type (a *typedPool[T]).
type arenaPool interface {
	reset()
	trim()
}

type typedPool[T Elem] struct{ p buf.Pool[T] }

func (t *typedPool[T]) reset() { t.p.Reset() }
func (t *typedPool[T]) trim()  { t.p.Trim() }

// arenas holds the arenas no launch is using, at most one per P: a launch
// that follows another on the same sweep worker finds the last one's staging
// classes and payload slabs there instead of allocating (and zeroing) them
// again, and the last arena handed back is the first lent out. A sync.Pool
// would lose them: another P cannot take what sits in a P's private slot,
// and two collections empty it, so a worker of a sweep whose cells each
// allocate hundreds of MiB would find a new arena about half the time. What
// an idle arena holds is bounded by Pool.Trim: about its last launch.
var arenas struct {
	sync.Mutex
	idle []*arena
}

// borrowArena lends out an idle arena, or a new one.
func borrowArena() *arena {
	arenas.Lock()
	defer arenas.Unlock()
	n := len(arenas.idle)
	if n == 0 {
		return &arena{pools: map[reflect.Type]arenaPool{}}
	}
	a := arenas.idle[n-1]
	arenas.idle[n-1] = nil
	arenas.idle = arenas.idle[:n-1]
	return a
}

// returnArena makes a idle, unless GOMAXPROCS arenas already are.
func returnArena(a *arena) {
	arenas.Lock()
	defer arenas.Unlock()
	if len(arenas.idle) < runtime.GOMAXPROCS(0) {
		arenas.idle = append(arenas.idle, a)
	}
}

// poolFor returns the cluster's staging arena for element type T, creating
// it on first use, or nil once the cluster has released its arena. The
// cluster's first call borrows the arena. It probes a type-keyed map, so
// the data path resolves it once per buffer (Buffer.scratch) rather than
// per clone and release.
func poolFor[T Elem](c *Cluster) *buf.Pool[T] {
	if c == nil || c.released {
		return nil
	}
	if c.arena == nil {
		c.arena = borrowArena()
		for _, p := range c.arena.pools {
			p.reset()
		}
	}
	t := reflect.TypeFor[T]()
	if p, ok := c.arena.pools[t]; ok {
		return &p.(*typedPool[T]).p
	}
	p := &typedPool[T]{}
	c.arena.pools[t] = p
	return &p.p
}

// PoolStats reports the staging arena's traffic counters for element type T
// since the cluster borrowed it (tests pin the zero-allocation steady state
// with these).
func PoolStats[T Elem](c *Cluster) buf.Stats {
	if p := poolFor[T](c); p != nil {
		return p.Stats()
	}
	return buf.Stats{}
}

// Release ends the cluster's launch: every Uninit buffer goes back to the
// arena and is poisoned (Data panics on it), each pool trims what it keeps
// to about this launch's footprint, and the arena waits for the next
// launch. Call it once the engine is closed; the cluster runs no more.
func (c *Cluster) Release() {
	a := c.arena
	c.arena, c.released = nil, true
	if a == nil {
		return
	}
	for _, m := range a.lent {
		m.recycle()
	}
	clear(a.lent)
	a.lent = a.lent[:0]
	for _, p := range a.pools {
		p.trim()
	}
	returnArena(a)
}

// computeScale resolves the compute-time multiplier for a device now.
func (c *Cluster) computeScale(at sim.Time, rank int) float64 {
	if c.ComputeFault == nil {
		return 1
	}
	if f := c.ComputeFault(at, rank); f > 0 {
		return f
	}
	return 1
}

// SetTrace installs a span log on the cluster and its fabric.
func (c *Cluster) SetTrace(l *trace.Log) {
	c.trace = l
	c.Fabric.Trace = l
}

// SetMetrics installs a metrics registry on the cluster, its engine and its
// fabric; nil disables collection (the default).
func (c *Cluster) SetMetrics(r *metrics.Registry) {
	c.Metrics = r
	c.Eng.SetMetrics(r)
	c.Fabric.SetMetrics(r)
	c.mSlowed = r.Counter("gpu.kernels.slowed")
	c.mKernels = r.Counter("gpu.kernels")
	c.mStreamOp = r.Counter("gpu.stream_ops")
}

// NewCluster creates nGPUs devices packed onto nodes per the machine model,
// all running (with their stream daemons, which spawn here) on eng.
func NewCluster(eng *sim.Engine, model *machine.Model, nGPUs int) *Cluster {
	nodes := model.NodesFor(nGPUs)
	fab := fabric.New(model.FabricConfig(nodes))
	c := &Cluster{
		Eng: eng, Model: model, Fabric: fab,
		kernelLabels: map[string]string{},
	}
	for i := 0; i < nGPUs; i++ {
		d := &Device{
			id:      i,
			Local:   fab.Local(i),
			cluster: c,
		}
		d.defaultStream = d.NewStream("default")
		c.Devices = append(c.Devices, d)
	}
	return c
}

// Device is one simulated GPU (or GCD).
type Device struct {
	id    int // global id
	Local int

	cluster       *Cluster
	streams       []*Stream
	defaultStream *Stream
}

// Cluster reports the owning cluster.
func (d *Device) Cluster() *Cluster { return d.cluster }

// Engine reports the engine the device (and its streams) runs on.
func (d *Device) Engine() *sim.Engine { return d.cluster.Eng }

// Model reports the machine model.
func (d *Device) Model() *machine.Model { return d.cluster.Model }

// DefaultStream returns the device's stream 0.
func (d *Device) DefaultStream() *Stream { return d.defaultStream }

// Crash kills every stream daemon of the device: enqueued and future work
// is never executed, as when the GPU (or its host rank) dies. Used by the
// hard-fault scheduler in internal/core alongside killing the rank process.
func (d *Device) Crash() {
	for _, s := range d.streams {
		s.proc.Kill()
	}
}

// NewStream creates an independent in-order execution queue on the device.
func (d *Device) NewStream(name string) *Stream {
	s := &Stream{
		dev:       d,
		name:      fmt.Sprintf("gpu%d.%s", d.id, name),
		completed: sim.NewCounter(fmt.Sprintf("gpu%d.%s.done", d.id, name), 0),
	}
	s.ops = sim.NewMailbox[streamOp](s.name + ".ops")
	s.serveFn = s.serve
	s.proc = d.cluster.Eng.SpawnDaemon(s.name, s.run)
	s.kc = KernelCtx{P: s.proc, Dev: d}
	d.streams = append(d.streams, s)
	return s
}

// OpLabels memoizes the labels of one family of stream operations, indexed by
// a peer rank ("send->3") or an op count ("ccl-kernel[64]"), so enqueueing an
// operation formats nothing after the first use of its index.
type OpLabels struct {
	Format string // with one %d verb
	names  []string
}

// For returns the label of index i >= 0.
func (l *OpLabels) For(i int) string {
	if i >= len(l.names) {
		l.names = append(l.names, make([]string, i+1-len(l.names))...)
	}
	if l.names[i] == "" {
		l.names[i] = fmt.Sprintf(l.Format, i)
	}
	return l.names[i]
}

// streamOp is one enqueued stream operation: a step machine (step, plus drop
// if it must hear that it was torn down), or a body (run) for the daemon's
// coroutine.
type streamOp struct {
	label string
	step  func(p *sim.Proc) sim.Duration
	drop  func()
	run   func(p *sim.Proc)
}

// Stream is an in-order execution queue, served by a daemon process.
// Operations run one at a time in enqueue order; the host synchronizes via
// Synchronize or events.
//
// An operation is a step machine wherever it can be: the daemon serves it in
// its own event slots through one long-lived script (sim.Proc.AdvanceFn), so
// no coroutine is resumed for it. Only a body that may block — a kernel's
// Body, which may communicate through its KernelCtx, or an Enqueue body — is
// handed the daemon's coroutine (DESIGN.md §5.2).
type Stream struct {
	dev  *Device
	name string
	ops  *sim.Mailbox[streamOp]
	proc *sim.Proc

	cur     streamOp            // the operation in service; zero while idle
	start   sim.Time            // when cur started
	serveFn func() sim.Duration // serve, bound once
	kc      KernelCtx           // handed to every blocking kernel body
	free    []*op               // recycled records of Launch, MemcpyAsync and Record

	enqueued  uint64
	completed *sim.Counter
	aborted   error // first abort raised by a poisoned op (hard-fault recovery)
}

// Device reports the owning device.
func (s *Stream) Device() *Device { return s.dev }

// Name reports the stream's diagnostic name.
func (s *Stream) Name() string { return s.name }

// run is the daemon's body. serve runs operations in step form until one has
// a body for the coroutine, which runs it here; a step that aborts — an
// interrupt raised where its op waits, a partitioned fabric — unwinds to here
// too. A poisoned op is dropped and recorded for TakeAborted, but still counts
// as completed (the queue must drain so Synchronize returns), and the stream
// keeps serving post-recovery work. Device.Crash unwinds the daemon for good.
func (s *Stream) run(p *sim.Proc) {
	defer s.drop()
	for {
		if err := sim.Protect(func() {
			p.AdvanceFn(0, s.serveFn)
			s.cur.run(p)
		}); err != nil {
			s.drop()
			if s.aborted == nil {
				s.aborted = err
			}
		}
		s.finish()
	}
}

// serve is the daemon's script step. Idle (no op in service; a body op is
// finished by run before serve is entered again), it takes the next op from
// the mailbox, or enlists there; it then drives the op's steps in this event
// slot and, when one completes, finishes it and goes on to the next. It ends
// the script for an op whose body the coroutine must run.
func (s *Stream) serve() sim.Duration {
	p := s.proc
	for {
		if s.cur.step == nil {
			op, ok := s.ops.Enlist(p)
			if !ok {
				return sim.StepEnlisted
			}
			// A revoke (InterruptAll) delivered while the stream sat idle
			// refers to no operation of this stream; each op starts with a
			// clean slate.
			p.ClearInterrupt()
			s.cur, s.start = op, p.Now()
			if op.run != nil {
				return sim.StepResume
			}
		}
		if d := s.cur.step(p); d != sim.StepResume {
			return d
		}
		s.finish()
	}
}

// finish completes the op in service.
func (s *Stream) finish() {
	c := s.dev.cluster
	c.mStreamOp.Inc()
	c.trace.Add(trace.Span{
		Kind: trace.KindStreamOp, Label: s.cur.label, Track: s.name,
		Rank: s.dev.id, Src: s.dev.id, Dst: s.dev.id,
		Start: s.start, End: c.Eng.Now(),
	})
	s.cur = streamOp{}
	s.completed.Add(c.Eng, 1)
}

// drop tells a step op in service that its remaining steps will not run.
func (s *Stream) drop() {
	if drop := s.cur.drop; drop != nil {
		s.cur.drop = nil
		drop()
	}
}

// TakeAborted returns and clears the first abort recorded by a poisoned
// stream operation. Recovery paths call it after synchronizing to learn
// whether completed-but-poisoned work failed; nil means all work succeeded.
func (s *Stream) TakeAborted() error {
	err := s.aborted
	s.aborted = nil
	return err
}

// EnqueueStep places an operation in step form on the stream without
// host-side cost. Once all previously enqueued work has completed, the daemon
// calls step in its own event slots — on the op's start, then on every wake
// the op asked for — until step answers sim.StepResume, which completes the
// op. step must not block: it answers d > 0 to be called again d later, or
// sim.StepEnlisted once it has enlisted p on a primitive (sim.Gate.Enlist and
// its kin). drop, if non-nil, is called instead of the remaining steps when
// the op is torn down mid-way: a step aborted, the daemon was revoked where
// the op waits, or the device crashed.
func (s *Stream) EnqueueStep(label string, step func(p *sim.Proc) sim.Duration, drop func()) {
	s.put(streamOp{label: label, step: step, drop: drop})
}

// Enqueue places an operation whose body may block on the stream without
// host-side cost. The daemon's coroutine runs it after all previously
// enqueued work.
func (s *Stream) Enqueue(label string, run func(p *sim.Proc)) {
	s.put(streamOp{label: label, run: run})
}

// put counts the op as enqueued only once the mailbox has settled the
// host's deferred charges (sim.Proc.Charge): until then the op is not yet
// the stream's.
func (s *Stream) put(op streamOp) {
	s.ops.Put(s.dev.cluster.Eng, op)
	s.enqueued++
}

// Pending reports the number of enqueued-but-incomplete operations.
func (s *Stream) Pending() uint64 { return s.enqueued - s.completed.Value() }

// StreamOf returns the device's stream whose daemon is p, or nil.
func (d *Device) StreamOf(p *sim.Proc) *Stream {
	for _, s := range d.streams {
		if s.proc == p {
			return s
		}
	}
	return nil
}

// AppendState appends the stream's state relative to now for a fast-forward
// digest (sim.Engine.AppendState): its incomplete operations and, for the one
// in service, its label and how long ago it started. It reports false when a
// stream has recorded an abort, which no digest accounts for.
func (s *Stream) AppendState(b []byte, now sim.Time) ([]byte, bool) {
	b = binary.AppendUvarint(b, s.Pending())
	if s.busy() {
		b = append(b, s.cur.label...)
		b = binary.AppendVarint(b, int64(now.Sub(s.start)))
	}
	return append(b, 0), s.aborted == nil
}

// Shift moves the start of the operation in service d later, for a fast
// forward that moved the engine's clock (sim.Engine.Shift).
func (s *Stream) Shift(d sim.Duration) {
	if s.busy() {
		s.start = s.start.Add(d)
	}
}

// busy reports whether an operation is in service.
func (s *Stream) busy() bool { return s.cur.step != nil || s.cur.run != nil }

// Streams returns the device's streams in creation order.
func (d *Device) Streams() []*Stream { return d.streams }

// Synchronize blocks the host process until all work enqueued so far has
// completed, mirroring cudaStreamSynchronize.
func (s *Stream) Synchronize(host *sim.Proc) {
	s.completed.WaitGE(host, s.enqueued)
}

// Query reports whether all work enqueued so far has completed, mirroring
// cudaStreamQuery; the caller pays the query's host-side cost.
func (s *Stream) Query(host *sim.Proc) bool {
	host.Advance(s.dev.Model().Uniconn.StreamQuery)
	return s.Pending() == 0
}

// op is the record of one of the stream's own operations — a kernel launch, a
// memcpy or an event record — recycled through the stream, so enqueueing one
// allocates nothing in steady state.
type op struct {
	s    *Stream
	kind opKind
	// charged is set once the op has done its work and asked for its time:
	// the next step completes it.
	charged  bool
	k        *Kernel
	args     any
	dst, src View
	n        int
	ev       *Event
	seq      uint64
	stepFn   func(p *sim.Proc) sim.Duration // step, bound once
	bodyFn   func(p *sim.Proc)              // runBody, bound on the record's first Body kernel
}

type opKind uint8

const (
	opKernel opKind = iota
	opMemcpy
	opRecord
)

func (s *Stream) newOp(kind opKind) *op {
	var o *op
	if n := len(s.free); n > 0 {
		o, s.free = s.free[n-1], s.free[:n-1]
	} else {
		o = &op{s: s}
		o.stepFn = o.step
	}
	o.kind = kind
	return o
}

func (s *Stream) release(o *op) {
	*o = op{s: s, stepFn: o.stepFn, bodyFn: o.bodyFn}
	s.free = append(s.free, o)
}

// step is the op's step machine: its work and time in the first slot — a
// kernel's Compute then its modelled duration, a memcpy's booking and copy
// then its arrival, an event's completion — and its completion in the slot
// that time ends.
func (o *op) step(p *sim.Proc) sim.Duration {
	if !o.charged {
		o.charged = true
		var d sim.Duration
		switch s := o.s; o.kind {
		case opKernel:
			if o.k.Compute != nil {
				o.k.Compute()
			}
			d = o.kernelTime(p)
		case opMemcpy:
			cl := s.dev.cluster
			cost := cl.Model.Cost(machine.LibMPI, machine.APIHost, fabric.PathSelf, o.dst.Slice(0, o.n).Bytes())
			end := cl.Fabric.Transfer(p.Now(), s.dev.id, s.dev.id, int64(o.n)*int64(o.dst.ElemSize()), cost)
			Copy(o.dst, o.src, o.n)
			d = end.Sub(p.Now())
		case opRecord:
			o.ev.complete(o.seq, p.Engine())
		}
		if d > 0 {
			return d
		}
	}
	o.s.release(o)
	return sim.StepResume
}

// runBody runs a kernel whose Body may block, on the daemon's coroutine.
func (o *op) runBody(p *sim.Proc) {
	s := o.s
	s.kc.Args = o.args
	o.k.Body(&s.kc)
	p.Advance(o.kernelTime(p))
	s.release(o)
}

// kernelTime is the kernel's modelled compute duration from now, scaled by
// any slow-rank fault.
func (o *op) kernelTime(p *sim.Proc) sim.Duration {
	if o.k.Time == nil {
		return 0
	}
	return o.s.dev.scaleCompute(p.Now(), o.k.Time(o.s.dev))
}

// Event is a CUDA/HIP-style timing and synchronization event. Each Record
// is numbered, and the event follows its latest one, as cudaEventRecord
// does: Synchronize waits for it, and At reports when it completed.
type Event struct {
	label    string       // "event <name>", the stream-op label
	recorded uint64       // Records issued
	done     *sim.Counter // the latest record completed so far
	at       sim.Time
}

// NewEvent creates an unrecorded event.
func NewEvent(name string) *Event {
	return &Event{label: "event " + name, done: sim.NewCounter("event "+name, 0)}
}

// Record enqueues the event on the stream: it completes, capturing the
// virtual time, when the stream reaches it. Re-recording supersedes a record
// that has not completed yet: Synchronize waits for the new one, and the old
// one, should another stream reach it later, changes nothing.
func (e *Event) Record(s *Stream) {
	e.recorded++
	o := s.newOp(opRecord)
	o.ev, o.seq = e, e.recorded
	s.EnqueueStep(e.label, o.stepFn, nil)
}

// complete is record seq's arrival at its stream.
func (e *Event) complete(seq uint64, eng *sim.Engine) {
	if seq > e.done.Value() {
		e.at = eng.Now()
		e.done.Set(eng, seq)
	}
}

// Synchronize blocks the host until the latest record has completed.
func (e *Event) Synchronize(host *sim.Proc) { e.done.WaitGE(host, e.recorded) }

// At reports the virtual time captured by the latest completed Record.
func (e *Event) At() sim.Time { return e.at }

// Elapsed reports end.At() - start.At(), mirroring cudaEventElapsedTime.
func Elapsed(start, end *Event) sim.Duration { return end.at.Sub(start.at) }

// Kernel describes a launchable GPU kernel: Time, the modelled compute
// duration, and a functional payload of one of two kinds, told apart by type.
// Compute is handed nothing to communicate with, so it cannot block: the
// stream runs it in its own event slot and then charges Time. Body is handed
// the KernelCtx, through which it may perform device-initiated communication
// and so block: it runs on the stream daemon's coroutine, and Time is charged
// after whatever time the body consumes itself. A kernel sets at most one of
// Compute and Body; any of the three may be omitted.
type Kernel struct {
	Name    string
	Time    func(d *Device) sim.Duration
	Compute func()
	Body    func(k *KernelCtx)
}

// KernelCtx is the device-side execution context handed to kernel bodies.
type KernelCtx struct {
	P   *sim.Proc
	Dev *Device
	// Args carries launch arguments bound by the caller (UNICONN's
	// BindKernel stores them here).
	Args any
}

// ComputeBytes advances virtual time by the machine's memory-bound kernel
// model for the given traffic (scaled by any slow-rank fault).
func (k *KernelCtx) ComputeBytes(bytes int64) {
	k.P.Advance(k.Dev.scaleCompute(k.P.Now(), k.Dev.Model().StencilKernelTime(bytes)))
}

// scaleCompute applies the cluster's slow-rank fault multiplier to one
// modeled compute duration.
func (d *Device) scaleCompute(at sim.Time, dur sim.Duration) sim.Duration {
	f := d.cluster.computeScale(at, d.id)
	if f == 1 {
		return dur
	}
	d.cluster.mSlowed.Inc()
	return sim.Duration(float64(dur) * f)
}

// Launch enqueues the kernel on the stream, charging the host the kernel
// launch overhead. It returns immediately (asynchronous, like CUDA).
func (s *Stream) Launch(host *sim.Proc, k *Kernel, args any) {
	if k.Body != nil && k.Compute != nil {
		panic(fmt.Sprintf("gpu: kernel %s sets both Body and Compute", k.Name))
	}
	s.dev.cluster.mKernels.Inc()
	host.Charge(s.dev.Model().GPU.KernelLaunch) // paid at the stream's mailbox
	label := s.dev.cluster.kernelLabel(k.Name)
	o := s.newOp(opKernel)
	o.k = k
	if k.Body == nil {
		s.EnqueueStep(label, o.stepFn, nil)
		return
	}
	if o.bodyFn == nil {
		o.bodyFn = o.runBody
	}
	o.args = args
	s.Enqueue(label, o.bodyFn)
}

// kernelLabel is the stream-op label of kernels named name, formatted once
// per cluster.
func (c *Cluster) kernelLabel(name string) string {
	l, ok := c.kernelLabels[name]
	if !ok {
		l = "kernel " + name
		c.kernelLabels[name] = l
	}
	return l
}

// MemcpyAsync enqueues a device-local copy of n elements on the stream.
func (s *Stream) MemcpyAsync(host *sim.Proc, dst, src View, n int) {
	host.Advance(s.dev.Model().HostOp)
	o := s.newOp(opMemcpy)
	o.dst, o.src, o.n = dst, src, n
	s.EnqueueStep("memcpy", o.stepFn, nil)
}
