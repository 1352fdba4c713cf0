package gpu

import (
	"fmt"
	"reflect"
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

	// pools holds the cluster's staging arenas, one buf.Pool[T] per element
	// type (keyed by reflect.Type, resolved through poolFor). Like the trace
	// log and metrics registry, pools belong to one cell: parallel sweep
	// cells each build their own cluster and so never share an arena. The
	// mutex keeps poolFor and PoolStats callable from outside the engine's
	// goroutine; the pools themselves are internally synchronized.
	poolsMu sync.Mutex
	pools   map[reflect.Type]any
}

// poolFor returns the cluster's staging arena for element type T, creating
// it on first use. It takes the cluster mutex and probes a type-keyed map,
// so the data path resolves it once per buffer (Buffer.scratch) rather than
// per clone and release.
func poolFor[T Elem](c *Cluster) *buf.Pool[T] {
	t := reflect.TypeFor[T]()
	c.poolsMu.Lock()
	defer c.poolsMu.Unlock()
	if p, ok := c.pools[t]; ok {
		return p.(*buf.Pool[T])
	}
	p := &buf.Pool[T]{}
	c.pools[t] = p
	return p
}

// PoolStats reports the staging arena's traffic counters for element type T
// (tests pin the zero-allocation steady state with these).
func PoolStats[T Elem](c *Cluster) buf.Stats {
	return poolFor[T](c).Stats()
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
		pools: make(map[reflect.Type]any),
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
		enqueued:  0,
		completed: sim.NewCounter(fmt.Sprintf("gpu%d.%s.done", d.id, name), 0),
	}
	s.ops = sim.NewMailbox[streamOp](s.name + ".ops")
	s.proc = d.cluster.Eng.SpawnDaemon(s.name, s.run)
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

// streamOp is one enqueued stream operation.
type streamOp struct {
	label string
	run   func(p *sim.Proc)
}

// Stream is an in-order execution queue, served by a daemon process.
// Operations run one at a time in enqueue order; the host synchronizes via
// Synchronize or events.
type Stream struct {
	dev  *Device
	name string
	ops  *sim.Mailbox[streamOp]
	proc *sim.Proc

	enqueued  uint64
	completed *sim.Counter
	aborted   error // first abort raised by a poisoned op (hard-fault recovery)
}

// Device reports the owning device.
func (s *Stream) Device() *Device { return s.dev }

// Name reports the stream's diagnostic name.
func (s *Stream) Name() string { return s.name }

func (s *Stream) run(p *sim.Proc) {
	for {
		op := s.ops.Get(p)
		// A revoke (InterruptAll) delivered while the stream sat idle refers
		// to no operation of this stream; each op starts with a clean slate.
		p.ClearInterrupt()
		start := p.Now()
		// A poisoned op (interrupted mid-collective after a rank failure)
		// aborts here instead of wedging the daemon: the abort is recorded
		// for TakeAborted, the op still counts as completed (the queue must
		// drain so Synchronize returns), and the stream keeps serving
		// post-recovery work.
		if err := sim.Protect(func() { op.run(p) }); err != nil && s.aborted == nil {
			s.aborted = err
		}
		s.dev.cluster.mStreamOp.Inc()
		s.dev.cluster.trace.Add(trace.Span{
			Kind: trace.KindStreamOp, Label: op.label, Track: s.name,
			Rank: s.dev.id, Src: s.dev.id, Dst: s.dev.id,
			Start: start, End: p.Now(),
		})
		s.completed.Add(p.Engine(), 1)
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

// Enqueue places an operation on the stream without host-side cost. The
// operation runs on the stream process after all previously enqueued work.
func (s *Stream) Enqueue(label string, run func(p *sim.Proc)) {
	s.enqueued++
	s.ops.Put(s.dev.cluster.Eng, streamOp{label: label, run: run})
}

// Pending reports the number of enqueued-but-incomplete operations.
func (s *Stream) Pending() uint64 { return s.enqueued - s.completed.Value() }

// Synchronize blocks the host process until all work enqueued so far has
// completed, mirroring cudaStreamSynchronize.
func (s *Stream) Synchronize(host *sim.Proc) {
	s.completed.WaitGE(host, s.enqueued)
}

// Query reports whether the stream has pending work, mirroring
// cudaStreamQuery; the caller pays the query's host-side cost.
func (s *Stream) Query(host *sim.Proc) bool {
	host.Advance(s.dev.Model().Uniconn.StreamQuery)
	return s.Pending() == 0
}

// Event is a CUDA/HIP-style timing and synchronization event.
type Event struct {
	name string
	gate *sim.Gate
	at   sim.Time
}

// NewEvent creates an unrecorded event.
func NewEvent(name string) *Event {
	return &Event{name: name, gate: sim.NewGate("event " + name)}
}

// Record enqueues the event on the stream: it fires (capturing the virtual
// time) when the stream reaches it. Re-recording resets the event.
func (e *Event) Record(s *Stream) {
	if e.gate.Fired() {
		e.gate = sim.NewGate("event " + e.name)
	}
	g := e.gate
	s.Enqueue("event "+e.name, func(p *sim.Proc) {
		e.at = p.Now()
		g.Fire(p.Engine())
	})
}

// Synchronize blocks the host until the event has fired.
func (e *Event) Synchronize(host *sim.Proc) { e.gate.Wait(host) }

// At reports the virtual time captured by the last completed Record.
func (e *Event) At() sim.Time { return e.at }

// Elapsed reports end.At() - start.At(), mirroring cudaEventElapsedTime.
func Elapsed(start, end *Event) sim.Duration { return end.at.Sub(start.at) }

// Kernel describes a launchable GPU kernel. Body is the functional payload
// executed on the stream process (it may perform device-initiated
// communication through the KernelCtx); Time is the modeled compute
// duration, applied in addition to any time the body itself consumes.
// Either may be omitted.
type Kernel struct {
	Name string
	Time func(d *Device) sim.Duration
	Body func(k *KernelCtx)
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
	s.dev.cluster.mKernels.Inc()
	host.Advance(s.dev.Model().GPU.KernelLaunch)
	s.Enqueue("kernel "+k.Name, func(p *sim.Proc) {
		ctx := &KernelCtx{P: p, Dev: s.dev, Args: args}
		if k.Body != nil {
			k.Body(ctx)
		}
		if k.Time != nil {
			p.Advance(s.dev.scaleCompute(p.Now(), k.Time(s.dev)))
		}
	})
}

// MemcpyAsync enqueues a device-local copy of n elements on the stream.
func (s *Stream) MemcpyAsync(host *sim.Proc, dst, src View, n int) {
	host.Advance(s.dev.Model().HostOp)
	s.Enqueue("memcpy", func(p *sim.Proc) {
		cost := s.dev.cluster.Model.Cost(machine.LibMPI, machine.APIHost, fabric.PathSelf, dst.Slice(0, n).Bytes())
		end := s.dev.cluster.Fabric.Transfer(p.Now(), s.dev.id, s.dev.id, int64(n)*int64(dst.ElemSize()), cost)
		Copy(dst, src, n)
		p.AdvanceTo(end)
	})
}
