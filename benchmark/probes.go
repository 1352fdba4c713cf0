package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/buf"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Probes: tight loops over one public call of a layer, at a fixed iteration
// count. They run in the traced run only, after the traced pass, and every
// traced run reports all of them — a probe does not depend on the workload,
// so the six values of one probe are also a reading of the host's noise.
// README.md names the workload on which each probe's layer does the work.

type prober struct {
	smoke  bool
	tmpDir string
	m      map[string]float64
	n      map[string]int // sample (iteration) count per probe
}

// iters is the probe's iteration count: n on a full run, 1 at -scale smoke.
func (p *prober) iters(n int) int {
	if p.smoke {
		return 1
	}
	return n
}

// perCall records d/n under name, in the unit the catalogue gives the probe.
func (p *prober) perCall(name string, d time.Duration, n int) {
	v := float64(d) / float64(n)
	switch probeUnit[name] {
	case "us":
		v /= 1e3
	case "ms":
		v /= 1e6
	}
	p.m[name], p.n[name] = v, n
}

var probeUnit = func() map[string]string {
	m := map[string]string{}
	for _, d := range layerProbes {
		m[d.Name] = d.Unit
	}
	return m
}()

// medianOf runs fn reps times and records the median of its durations.
func (p *prober) medianOf(name string, reps int, fn func() time.Duration) {
	reps = p.iters(reps)
	ds := make([]float64, reps)
	for i := range ds {
		ds[i] = float64(fn())
	}
	p.perCall(name, time.Duration(median(ds)), 1)
	p.n[name] = reps
}

func timed(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// runProbes runs every probe; a panic inside a layer becomes the error.
// Probes run on one processor, as the workloads do (each is a sequential
// loop); the two that are about concurrency raise it for themselves.
func runProbes(smoke bool, tmpDir string) (m map[string]float64, n map[string]int, err error) {
	p := &prober{smoke: smoke, tmpDir: tmpDir, m: map[string]float64{}, n: map[string]int{}}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe: %v", r)
		}
	}()
	p.simProbes()
	p.bufGPUProbes()
	p.fabricProbes()
	p.p2pProbes()
	p.launchProbes()
	p.poolProbe()
	p.traceProbes()
	p.specCacheProbes()
	p.serveProbes()
	return p.m, p.n, nil
}

func runEngine(e *sim.Engine) time.Duration {
	d := timed(func() { must(e.Run()) })
	e.Close()
	return d
}

func (p *prober) simProbes() {
	n := p.iters(200000)
	e := sim.NewEngine()
	e.Spawn("adv", func(pr *sim.Proc) {
		for i := 0; i < n; i++ {
			pr.Advance(sim.Nanosecond)
		}
	})
	p.perCall("sim.advance_ns", runEngine(e), n)

	// Two procs over a gate: every Wait hands control to the other goroutine.
	n = p.iters(20000)
	e = sim.NewEngine()
	ping, pong := make([]*sim.Gate, n), make([]*sim.Gate, n)
	for i := range ping {
		ping[i], pong[i] = sim.NewGate("ping"), sim.NewGate("pong")
	}
	e.Spawn("a", func(pr *sim.Proc) {
		for i := 0; i < n; i++ {
			ping[i].Fire(e)
			pong[i].Wait(pr)
		}
	})
	e.Spawn("b", func(pr *sim.Proc) {
		for i := 0; i < n; i++ {
			ping[i].Wait(pr)
			pong[i].Fire(e)
		}
	})
	p.perCall("sim.handoff_ns", runEngine(e), 2*n)

	// 1024 procs advancing in lock-step: every dispatch resumes a different
	// goroutine over a 1024-deep event heap.
	const procs = 1024
	rounds := p.iters(40)
	e = sim.NewEngine()
	for k := 0; k < procs; k++ {
		e.Spawn("p", func(pr *sim.Proc) {
			for i := 0; i < rounds; i++ {
				pr.Advance(sim.Nanosecond)
			}
		})
	}
	p.perCall("sim.handoff_1024_ns", runEngine(e), procs*rounds)

	n = p.iters(200000)
	e = sim.NewEngine()
	var fired int
	var tick func()
	tick = func() {
		if fired++; fired < n {
			e.After(sim.Nanosecond, tick)
		}
	}
	e.After(sim.Nanosecond, tick)
	p.perCall("sim.callback_ns", runEngine(e), n)

	n = p.iters(2000)
	e = sim.NewEngine()
	d := timed(func() {
		for i := 0; i < n; i++ {
			e.Spawn("s", func(*sim.Proc) {})
		}
		must(e.Run())
	})
	e.Close()
	p.perCall("sim.spawn_us", d, n)
}

func (p *prober) bufGPUProbes() {
	n := p.iters(200000)
	for _, c := range []struct {
		name  string
		elems int
	}{{"buf.getput_ns.2KiB", 2048 / 8}, {"buf.getput_ns.1MiB", (1 << 20) / 8}} {
		var pool buf.Pool[float64]
		pool.Put(pool.Get(c.elems))
		p.perCall(c.name, timed(func() {
			for i := 0; i < n; i++ {
				pool.Put(pool.Get(c.elems))
			}
		}), n)
	}

	const mib = (1 << 20) / 8
	e := sim.NewEngine()
	defer e.Close()
	cl := gpu.NewCluster(e, machine.Perlmutter(), 2)
	dev := cl.Devices[0]
	src := gpu.AllocBuffer[float64](dev, mib).Whole()
	n = p.iters(400)
	p.perCall("gpu.clone_release_us.1MiB", timed(func() {
		for i := 0; i < n; i++ {
			src.Clone().Release()
		}
	}), n)
	var keep *gpu.Buffer[float64]
	p.perCall("gpu.alloc_us.1MiB", timed(func() {
		for i := 0; i < n; i++ {
			keep = gpu.AllocBuffer[float64](dev, mib)
		}
	}), n)
	_ = keep

	n = p.iters(20000)
	stream := dev.NewStream("probe")
	e.Spawn("host", func(pr *sim.Proc) {
		for i := 0; i < n; i++ {
			stream.Enqueue("noop", func(*sim.Proc) {})
		}
		stream.Synchronize(pr)
	})
	p.perCall("gpu.stream_op_ns", timed(func() { must(e.Run()) }), n)
}

func (p *prober) fabricProbes() {
	m := machine.Perlmutter()
	const nodes = 64
	cost := m.Cost(machine.LibMPI, machine.APIHost, fabric.PathInter, 4096)
	n := p.iters(100000)
	for _, topo := range []fabric.TopologyKind{fabric.TopoFlat, fabric.TopoFatTree, fabric.TopoDragonfly} {
		cfg := m.FabricConfig(nodes)
		cfg.Topology = fabric.TopologyConfig{Kind: topo}
		f := fabric.New(cfg)
		gpus := f.NumGPUs()
		p.perCall("fabric.transfer_ns."+topo.String(), timed(func() {
			for i := 0; i < n; i++ {
				// Inter-node pairs: the destination is 1..nodes-1 nodes away.
				src := (i * 7) % gpus
				dst := (src + (1+i%(nodes-1))*cfg.GPUsPerNode) % gpus
				f.Transfer(sim.Time(i)*1000, src, dst, 4096, cost)
			}
		}), n)
	}
	n = p.iters(100)
	cfg := m.FabricConfig(nodes)
	cfg.Topology = fabric.TopologyConfig{Kind: fabric.TopoDragonfly}
	p.perCall("fabric.new_us.dragonfly", timed(func() {
		for i := 0; i < n; i++ {
			fabric.New(cfg)
		}
	}), n)

	n = p.iters(200000)
	var sink fabric.LinkCost
	p.perCall("machine.cost_ns", timed(func() {
		for i := 0; i < n; i++ {
			sink = m.Cost(machine.LibMPI, machine.APIHost, fabric.PathInter, int64(8+8*i))
		}
	}), n)
	cc := machine.NewCostCache(m)
	cc.Cost(machine.LibMPI, machine.APIHost, fabric.PathInter, 4096)
	p.perCall("machine.costcache_hit_ns", timed(func() {
		for i := 0; i < n; i++ {
			sink = cc.Cost(machine.LibMPI, machine.APIHost, fabric.PathInter, 4096)
		}
	}), n)
	_ = sink
}

// p2pCell times one 2-rank inter-node ping-pong cell and returns host time
// per message.
func p2pCell(cfg bench.NetConfig) time.Duration {
	cfg.Model, cfg.Inter, cfg.Shards = machine.Perlmutter(), true, -1
	d := timed(func() {
		_, _, err := bench.LatencyRun(cfg)
		must(err)
	})
	return d / time.Duration(2*(cfg.Iters+cfg.Warmup))
}

func (p *prober) p2pProbes() {
	iters, rndvIters := p.iters(1000), p.iters(100)
	cell := func(b core.BackendID, api machine.API, native bool) bench.NetConfig {
		return bench.NetConfig{Backend: b, API: api, Native: native, Bytes: 8, Iters: iters, Warmup: 1}
	}
	p.medianOf("mpi.p2p_eager_us", 3, func() time.Duration {
		return p2pCell(cell(core.MPIBackend, machine.APIHost, true))
	})
	p.medianOf("mpi.p2p_rndv_us", 3, func() time.Duration {
		return p2pCell(bench.NetConfig{Backend: core.MPIBackend, Native: true, Bytes: 1 << 20, Iters: rndvIters, Warmup: 1})
	})
	p.medianOf("gpuccl.p2p_us", 3, func() time.Duration {
		return p2pCell(cell(core.GpucclBackend, machine.APIHost, true))
	})
	p.medianOf("gpushmem.p2p_us.host", 3, func() time.Duration {
		return p2pCell(cell(core.GpushmemBackend, machine.APIHost, true))
	})
	p.medianOf("gpushmem.p2p_us.device", 3, func() time.Duration {
		return p2pCell(cell(core.GpushmemBackend, machine.APIDevice, true))
	})
	// Uniconn against native host time on the same cell, alternating.
	for _, b := range []struct {
		name string
		id   core.BackendID
	}{{"mpi", core.MPIBackend}, {"gpuccl", core.GpucclBackend}, {"gpushmem", core.GpushmemBackend}} {
		reps := p.iters(9)
		var native, uni []float64
		for i := 0; i < reps; i++ {
			native = append(native, float64(p2pCell(cell(b.id, machine.APIHost, true))))
			uni = append(uni, float64(p2pCell(cell(b.id, machine.APIHost, false))))
		}
		name := "core.dispatch_host_pct." + b.name
		p.m[name], p.n[name] = (median(uni)/median(native)-1)*100, reps
	}
}

func (p *prober) launchProbes() {
	m := machine.Perlmutter()
	for _, c := range []struct {
		name     string
		ranks, n int
	}{{"core.launch_us.2r", 2, 300}, {"core.launch_us.64r", 64, 30}} {
		n := p.iters(c.n)
		p.perCall(c.name, timed(func() {
			for i := 0; i < n; i++ {
				_, err := core.Launch(core.Config{Model: m, NGPUs: c.ranks, Shards: -1}, func(*core.Env) {})
				must(err)
			}
		}), n)
	}
}

// poolProbe reads the staging arena's hit ratio off rank 0 of one
// coll-large-64r-shaped cell (64 ranks, 1 MiB, warm-up plus one allreduce):
// bench.ScaleAllreduce does not expose its cluster, so the probe launches the
// same rank body itself. The ratio is exact.
func (p *prober) poolProbe() {
	ranks, elems := 64, (1<<20)/8
	if p.smoke {
		ranks, elems = 16, (64<<10)/8
	}
	var st buf.Stats
	_, err := core.Launch(core.Config{Model: machine.Perlmutter(), NGPUs: ranks, Shards: -1}, func(env *core.Env) {
		comm, pr := env.MPIComm(), env.Proc()
		send := gpu.AllocBuffer[float64](env.Device(), elems)
		recv := gpu.AllocBuffer[float64](env.Device(), elems)
		for i := 0; i < 2; i++ {
			comm.AllreduceAlg(pr, send.Whole(), recv.Whole(), gpu.ReduceSum, mpi.AlgAuto)
		}
		comm.Barrier(pr)
		if env.WorldRank() == 0 {
			st = gpu.PoolStats[float64](env.Device().Cluster())
		}
	})
	must(err)
	if st.Gets > 0 {
		p.m["buf.pool_hit_ratio"] = float64(st.Hits) / float64(st.Gets)
	}
	p.n["buf.pool_hit_ratio"] = int(st.Gets)
}

func (p *prober) traceProbes() {
	// One coll-small-64r cell's span log and registry.
	log, reg := trace.New(), metrics.New()
	ranks := 64
	if p.smoke {
		ranks = 16
	}
	_, _, err := bench.ScaleAllreduce(bench.ScaleConfig{Model: machine.Perlmutter(), Ranks: ranks, Bytes: 2048,
		Iters: 20, Warmup: 1, Compute: true, Shards: -1, Trace: log, Metrics: reg})
	must(err)
	p.medianOf("trace.critpath_ms.64r", 5, func() time.Duration {
		return timed(func() {
			spans := log.Sorted()
			trace.CriticalPath(spans)
			trace.BuildCommMatrix(spans)
		})
	})
	n := p.iters(500)
	p.perCall("metrics.snapshot_us", timed(func() {
		for i := 0; i < n; i++ {
			reg.Snapshot()
		}
	}), n)
}

func (p *prober) specCacheProbes() {
	sp := spec.Spec{Workload: spec.WorkloadNetBandwidth, Backend: "GPUSHMEM", API: "Device", Inter: true, Bytes: 4096}
	body, err := json.Marshal(sp)
	must(err)
	n := p.iters(20000)
	p.perCall("spec.decode_us", timed(func() {
		for i := 0; i < n; i++ {
			var s spec.Spec
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			must(dec.Decode(&s))
		}
	}), n)
	p.perCall("spec.validate_ns", timed(func() {
		for i := 0; i < n; i++ {
			must(sp.Validate())
		}
	}), n)
	var hash string
	p.perCall("spec.hash_ns", timed(func() {
		for i := 0; i < n; i++ {
			hash = sp.Hash()
		}
	}), n)

	// A real result document is the cached value.
	doc, _, err := bench.EvalSpec(sp, bench.EvalOptions{})
	must(err)
	n = p.iters(200000)
	c := cache.New(cache.Options{})
	c.Put(hash, doc)
	p.perCall("cache.get_hit_ns", timed(func() {
		for i := 0; i < n; i++ {
			c.Get(hash)
		}
	}), n)
	n = p.iters(100000)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	c = cache.New(cache.Options{MaxEntries: 256})
	p.perCall("cache.put_evict_ns", timed(func() {
		for _, k := range keys {
			c.Put(k, doc)
		}
	}), n)

	// Disk tier: a one-entry memory tier, so alternating keys always read
	// the file.
	dir, err := os.MkdirTemp(p.tmpDir, "cache-")
	must(err)
	defer os.RemoveAll(dir)
	n = p.iters(300)
	c = cache.New(cache.Options{MaxEntries: 1, Dir: dir})
	diskKeys := [2]string{fmt.Sprintf("%064x", 1), fmt.Sprintf("%064x", 2)}
	c.Put(diskKeys[1], doc)
	p.perCall("cache.disk_put_us", timed(func() {
		for i := 0; i < n; i++ {
			c.Put(diskKeys[i%2], doc)
		}
	}), n)
	p.perCall("cache.disk_get_us", timed(func() {
		for i := 0; i < n; i++ {
			if _, ok := c.Get(diskKeys[i%2]); !ok {
				panic("disk tier lost an entry")
			}
		}
	}), n)

	// Direct EvalSpec on the churn workload's specs: the simulation a miss
	// pays, without the service around it.
	churn, _ := churnSpecs(1, p.iters(32), 0)
	cold := make([]float64, len(churn))
	for i, s := range churn {
		cold[i] = float64(timed(func() {
			_, _, err := bench.EvalSpec(s, bench.EvalOptions{})
			must(err)
		}))
	}
	p.perCall("bench.evalspec_cold_ms", time.Duration(median(cold)), 1)
	p.n["bench.evalspec_cold_ms"] = len(churn)

	res, err := bench.DecodeResult(doc)
	must(err)
	n = p.iters(5000)
	p.perCall("bench.encode_us", timed(func() {
		for i := 0; i < n; i++ {
			_, err := res.Encode()
			must(err)
		}
	}), n)
	n = p.iters(50000)
	runtime.GOMAXPROCS(procsAtStart)
	p.perCall("bench.runner_us_per_cell", timed(func() {
		must(bench.NewRunner(0).Run(n, func(int) error { return nil }))
	}), n)
	runtime.GOMAXPROCS(1)
}

func (p *prober) serveProbes() {
	sp := spec.Spec{Workload: spec.WorkloadNetLatency, Bytes: 4096}
	body, err := json.Marshal(sp)
	must(err)
	sv := serve.New(serve.Options{})
	defer sv.Close()
	_, _, err = sv.Query(sp)
	must(err)

	n := p.iters(200000)
	p.perCall("serve.query_hit_ns", timed(func() {
		for i := 0; i < n; i++ {
			_, _, err := sv.Query(sp)
			must(err)
		}
	}), n)
	h := serve.NewHandler(sv, nil)
	cl := newServeClient()
	p.perCall("serve.handler_hit_ns", timed(func() {
		for i := 0; i < n; i++ {
			if cl.post(h, body).code != http.StatusOK {
				panic("handler hit failed")
			}
		}
	}), n)

	// Real loopback TCP, informational: it varied 20 % run to run when the
	// workloads were sized. A sandbox without sockets reports 0.
	func() {
		defer func() {
			if recover() != nil {
				p.m["serve.loopback_hit_us_p50"], p.n["serve.loopback_hit_us_p50"] = 0, 0
			}
		}()
		runtime.GOMAXPROCS(procsAtStart)
		defer runtime.GOMAXPROCS(1)
		ts := httptest.NewServer(h)
		defer ts.Close()
		n := p.iters(2000)
		lat := make([]time.Duration, n)
		for i := range lat {
			lat[i] = timed(func() {
				resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				must(err)
				var sink bytes.Buffer
				_, err = sink.ReadFrom(resp.Body)
				must(err)
				must(resp.Body.Close())
			})
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p.perCall("serve.loopback_hit_us_p50", quantile(lat, 0.5), 1)
		p.n["serve.loopback_hit_us_p50"] = n
	}()
}
