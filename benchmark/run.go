package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/trace"
)

// runOptions selects one run of one workload.
type runOptions struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string // span dumps, profiles, probe scratch; "" writes nothing
	// noGolden skips the golden comparison (-update-golden computes it).
	noGolden bool
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run reports: the last line of standard output is
// its {correct, attempted, failed, metrics} part, and a result file holds
// one record per line.
type record struct {
	Suite    string   `json:"suite"`
	GitRef   string   `json:"git_ref"`
	Host     hostInfo `json:"host"`
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Trace    bool     `json:"trace"`
	Smoke    bool     `json:"smoke,omitempty"`
	// Ops is the timed operation count, WallS the timed pass's wall time.
	Ops    int     `json:"ops"`
	WallS  float64 `json:"wall_s"`
	Digest string  `json:"digest"`
	// Golden is "ok", "mismatch", or "none" when golden.json has no entry
	// for this workload, seed and operation count.
	Golden    string                 `json:"golden"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples is the sample count behind each metric.
	Samples map[string]int `json:"samples"`
	// Errors holds the first few operation errors.
	Errors []string `json:"errors,omitempty"`
}

// simCounts are the exact per-layer counts of the traced pass, summed over
// the per-cell registries.
type simCounts struct {
	events, parks, eager, rndv int64
	transfers, bytes, waitNs   int64
	kernels, streamOps, spans  int64
	eventsRef, sendsRef        int64 // the same over the reference pass's operations
}

func (c *simCounts) add(snap metrics.Snapshot, spans int, inRef bool) {
	var events, sends int64
	for _, cv := range snap.Counters {
		switch n := cv.Name; {
		case n == "sim.events":
			events = cv.Value
		case strings.HasPrefix(n, "sim.parks."):
			c.parks += cv.Value
		case n == "mpi.sends.eager":
			c.eager += cv.Value
			sends += cv.Value
		case n == "mpi.sends.rendezvous":
			c.rndv += cv.Value
			sends += cv.Value
		case n == "gpu.kernels":
			c.kernels += cv.Value
		case n == "gpu.stream_ops":
			c.streamOps += cv.Value
		case strings.HasPrefix(n, "fabric.") && strings.HasSuffix(n, ".transfers"):
			c.transfers += cv.Value
		case strings.HasPrefix(n, "fabric.") && strings.HasSuffix(n, ".bytes"):
			c.bytes += cv.Value
		case strings.HasPrefix(n, "fabric.") && strings.HasSuffix(n, ".wait_ns"):
			c.waitNs += cv.Value
		}
	}
	c.events += events
	c.spans += int64(spans)
	if inRef {
		c.eventsRef += events
		c.sendsRef += sends
	}
}

// tracing configures a traced pass.
type tracing struct {
	spanEvery int
	attach    bool // attach a registry and a simulator trace log per cell
	refOps    int  // operations below this index also ran in the reference pass
}

// pass is the outcome of running operations 0..n-1 once.
type pass struct {
	lat    []time.Duration // host time per operation
	wall   time.Duration
	leaves [][32]byte
	failed int
	errs   []string
	counts simCounts
	log    *spanLog
}

func (p *pass) digest() string {
	h := sha256.New()
	for i := range p.leaves {
		h.Write(p.leaves[i][:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runPass executes operations 0..n-1 on the instance, one after the other:
// a closed loop of one client, who sends the next operation when the previous
// one returns. An operation's host time runs from the end of the previous
// operation to the end of this one, so the loop reads the clock once per
// operation.
func runPass(inst instance, n int, tr *tracing) *pass {
	p := &pass{lat: make([]time.Duration, n), leaves: make([][32]byte, n)}
	start := time.Now()
	if tr != nil {
		p.log = &spanLog{t0: start}
	}
	prev := start
	for i := 0; i < n; i++ {
		var ot *opTrace
		if tr != nil {
			ot = &opTrace{op: i, root: -1}
			if i%tr.spanEvery == 0 {
				ot.log = p.log
				ot.root = p.log.begin("op", i, -1)
			}
			if tr.attach {
				ot.reg, ot.sim = metrics.New(), trace.New()
			}
		}
		leaf, err := inst.op(i, ot)
		if ot != nil {
			if ot.log != nil {
				p.log.end(ot.root)
			}
			if ot.reg != nil {
				p.counts.add(ot.reg.Snapshot(), ot.sim.Len(), i < tr.refOps)
			}
		}
		now := time.Now()
		p.lat[i], prev = now.Sub(prev), now
		p.leaves[i] = leaf
		if err != nil {
			p.failed++
			if len(p.errs) < 5 {
				p.errs = append(p.errs, fmt.Sprintf("op %d: %v", i, err))
			}
		}
	}
	p.wall = time.Since(start)
	return p
}

// setUp builds one instance and runs its warm-up operations.
func setUp(w *workload, in inputs) (instance, error) {
	inst, err := w.setup(in)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	for j := 0; j < in.warm; j++ {
		if _, err := inst.op(in.n+j, nil); err != nil {
			inst.close()
			return nil, fmt.Errorf("warm-up operation %d: %w", j, err)
		}
	}
	return inst, nil
}

// runWorkload is one run: set up, time (or trace) a fixed operation count,
// verify, and report.
func runWorkload(w *workload, o runOptions) (*record, error) {
	// Every workload is a closed loop of one client on one processor. A
	// simulation cell on the serial engine is a sequential program — one
	// goroutine is runnable at any time — and a second processor adds nothing
	// but wake-ups across threads, whose cost is the hypervisor's and not the
	// program's (the 256-rank ring cell took 0.9-1.1 s on one processor and
	// 1.3-2.3 s on two when this was sized); a second client adds a thread
	// for the host's neighbours to disturb. README "One client, one
	// processor" has the measurements.
	runtime.GOMAXPROCS(1)
	host := readHost()
	seconds := o.seconds
	if o.trace {
		// The traced run has a reference pass and the probes to fit into the
		// same time, so it runs the operations of a run half as long (and
		// shares that run's golden digest).
		seconds /= 2
	}
	n := w.opsFor(seconds, o.smoke)
	in := inputs{seed: o.seed, n: n, warm: w.warmOps, setups: w.setupReps, smoke: o.smoke}
	if o.smoke {
		in.warm, in.setups = min(in.warm, 1), 1
	}
	rec := &record{Suite: suiteVersion, GitRef: gitRef(), Host: host, Workload: w.name, Seed: o.seed,
		Trace: o.trace, Smoke: o.smoke, Ops: in.n, Metrics: map[string]metricValue{}, Samples: map[string]int{}}

	var (
		timed *pass
		inst  instance
		err   error
	)
	if o.trace {
		timed, inst, err = tracedRun(w, in, o, rec)
	} else {
		timed, inst, err = untracedRun(w, in, rec)
	}
	if err != nil {
		return nil, err
	}
	defer inst.close()

	rec.WallS = timed.wall.Seconds()
	rec.Attempted, rec.Failed, rec.Errors = in.n, timed.failed, timed.errs
	if v, ok := inst.(verifier); ok {
		if err := v.verify(); err != nil {
			rec.Failed++
			rec.Errors = append(rec.Errors, err.Error())
		}
	}
	rec.Digest = timed.digest()
	switch want, ok := golden[goldenKey(w.name, o.seed, in.n, o.smoke)]; {
	case !ok || o.noGolden:
		rec.Golden = "none"
	case want == rec.Digest:
		rec.Golden = "ok"
	default:
		rec.Golden = "mismatch"
		if rec.Failed == 0 {
			// Some operation's simulated result changed; the rolled-up digest
			// cannot say which.
			rec.Failed = 1
		}
		rec.Errors = append(rec.Errors, fmt.Sprintf("digest %s, golden %s", rec.Digest, want))
	}
	if rec.Failed > rec.Attempted {
		rec.Failed = rec.Attempted
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

func (r *record) set(def metricDef, v float64, samples int) {
	r.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	r.Samples[def.Name] = samples
}

// untracedRun measures the end-to-end metrics: tracing, registries and
// profiling off.
func untracedRun(w *workload, in inputs, rec *record) (*pass, instance, error) {
	// The timed pass runs on the first set-up and the other set-ups follow
	// it, in a process that has grown its heap and faulted its pages in: the
	// set-ups of a fresh process took up to half as long again (serve-warm:
	// 1.15-1.55 s before the pass, 0.85-1.16 s after it).
	var setups []float64
	timedSetUp := func() (instance, error) {
		t := time.Now()
		inst, err := setUp(w, in)
		setups = append(setups, time.Since(t).Seconds())
		return inst, err
	}
	inst, err := timedSetUp()
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	p := runPass(inst, in.n, nil)
	for k := 1; k < in.setups; k++ {
		extra, err := timedSetUp()
		if err != nil {
			inst.close()
			return nil, nil, err
		}
		extra.close()
	}

	rate, p50, groups := quietStats(p.lat, w.opUnit, inst.kind)
	for _, def := range endToEnd {
		switch def.Name {
		case "setup_s":
			rec.set(def, slices.Min(setups), len(setups))
		case "ops_per_s":
			rec.set(def, rate, groups)
		case "op_us_p50":
			rec.set(def, p50, groups)
		}
	}
	return p, inst, nil
}

// maxGroups is how many groups of consecutive units a timed pass is cut into
// at most.
const maxGroups = 40

// quietStats estimates what the pass costs on a quiet host. The pass is cut
// into up to maxGroups groups of consecutive whole units, and within a group
// the operations are sorted by kind: operations of one kind do the same work,
// and every unit holds the same number of each. A kind's quiet time is that
// of the group where it ran best: the lowest mean for the throughput, the
// lowest median for the median. The throughput is then all operations over
// the summed quiet time of all of them, and the median is the median over
// operations of their kind's quiet median.
//
// The best group and not the whole run, because the sandbox's noise is
// one-sided (a neighbour only ever slows the run down), comes in episodes of
// seconds to minutes, and moved whole-run medians by 30 % between two
// quarters of an hour on the builder's host. A change to the program moves
// every group, the best one too. Per kind, because a quiet fifth of a second
// for one cell comes by far more often than a quiet two seconds for a whole
// pass over the sixteen application variants.
func quietStats(lat []time.Duration, unit int, kind func(i int) int) (rate, p50 float64, groups int) {
	units := max(len(lat)/unit, 1) // a smoke run shorter than one unit is one group
	groups = min(maxGroups, units)
	type quiet struct {
		mean, median float64
		ops          int
	}
	best := map[int]*quiet{}
	for g := 0; g < groups; g++ {
		lo, hi := g*units/groups*unit, (g+1)*units/groups*unit
		if g == groups-1 {
			hi = len(lat)
		}
		byKind := map[int][]float64{}
		for i := lo; i < hi; i++ {
			byKind[kind(i)] = append(byKind[kind(i)], us(lat[i]))
		}
		for k, xs := range byKind {
			q := best[k]
			if q == nil {
				q = &quiet{mean: math.Inf(1), median: math.Inf(1)}
				best[k] = q
			}
			var sum float64
			for _, x := range xs {
				sum += x
			}
			q.mean, q.median = min(q.mean, sum/float64(len(xs))), min(q.median, median(xs))
			q.ops += len(xs)
		}
	}
	kinds := make([]*quiet, 0, len(best))
	for _, q := range best {
		kinds = append(kinds, q)
	}
	// The median over operations: walk the kinds in order of their quiet
	// median until half of the operations are covered.
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].median < kinds[j].median })
	var totalUs float64
	for _, q := range kinds {
		totalUs += q.mean * float64(q.ops)
	}
	covered := 0
	for i, q := range kinds {
		covered += q.ops
		if 2*covered > len(lat) {
			p50 = q.median
			break
		}
		if 2*covered == len(lat) {
			p50 = (q.median + kinds[i+1].median) / 2
			break
		}
	}
	return float64(len(lat)) / (totalUs / 1e6), p50, groups
}

// tracedRun yields the per-layer metrics. It runs an untraced reference pass
// over the first third of the operations (for the runtime's allocation and
// GC numbers, the tails, and the base of trace.overhead_pct), then the
// traced pass over all of them on a fresh set-up — registry and simulator
// trace log attached per cell, CPU profile running, harness spans around
// every layer call — and then the probes.
func tracedRun(w *workload, in inputs, o runOptions, rec *record) (_ *pass, inst instance, err error) {
	defer func() {
		if err != nil && inst != nil {
			inst.close()
			inst = nil
		}
	}()
	m := map[string]float64{}
	samples := map[string]int{}

	refOps := min(max(in.n/3/w.opUnit*w.opUnit, w.opUnit), in.n)
	if inst, err = setUp(w, in); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ref := runPass(inst, refOps, nil)
	runtime.ReadMemStats(&after)
	rss := peakRSSMB()
	inst.close()
	inst = nil
	if ref.failed > 0 {
		return nil, nil, fmt.Errorf("reference pass: %s", strings.Join(ref.errs, "; "))
	}
	m["rt.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(refOps)
	m["rt.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(refOps) / 1e6
	m["rt.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["rt.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	m["rt.peak_rss_mb"] = rss
	lat := sortedCopy(ref.lat)
	m["op_us_p90"], m["op_us_p99"] = us(quantile(lat, 0.90)), us(quantile(lat, 0.99))
	for _, n := range []string{"rt.allocs_per_op", "rt.alloc_mb_per_op", "rt.gc_cycles", "rt.gc_pause_ms",
		"rt.peak_rss_mb", "op_us_p90", "op_us_p99"} {
		samples[n] = refOps
	}

	if inst, err = setUp(w, in); err != nil {
		return nil, nil, err
	}
	var svBefore serve.Stats
	sv, isServe := inst.(interface{ stats() serve.Stats })
	if isServe {
		svBefore = sv.stats()
	}
	runtime.GC()
	var profile bytes.Buffer
	profiling := pprof.StartCPUProfile(&profile) == nil
	tr := runPass(inst, in.n, &tracing{spanEvery: w.spanEvery, attach: !isServe, refOps: refOps})
	if profiling {
		pprof.StopCPUProfile()
	}

	c := tr.counts
	m["sim.events"], m["sim.parks"] = float64(c.events), float64(c.parks)
	m["mpi.sends.eager"], m["mpi.sends.rendezvous"] = float64(c.eager), float64(c.rndv)
	m["fabric.transfers"], m["fabric.bytes"], m["fabric.wait_ns"] = float64(c.transfers), float64(c.bytes), float64(c.waitNs)
	m["gpu.kernels"], m["gpu.stream_ops"] = float64(c.kernels), float64(c.streamOps)
	m["trace.spans"] = float64(c.spans)
	if c.eventsRef > 0 {
		m["sim.host_ns_per_event"] = float64(ref.wall) / float64(c.eventsRef)
	}
	if c.sendsRef > 0 {
		m["mpi.host_ns_per_send"] = float64(ref.wall) / float64(c.sendsRef)
	}
	samples["sim.host_ns_per_event"], samples["mpi.host_ns_per_send"] = int(c.eventsRef), int(c.sendsRef)
	m["trace.overhead_pct"] = ((tr.wall.Seconds()/float64(in.n))/(ref.wall.Seconds()/float64(refOps)) - 1) * 100
	samples["trace.overhead_pct"] = in.n

	if isServe {
		st := sv.stats()
		hits, misses := st.Cache.Hits-svBefore.Cache.Hits, st.Cache.Misses-svBefore.Cache.Misses
		m["cache.hits"], m["cache.misses"] = float64(hits), float64(misses)
		m["cache.evictions"] = float64(st.Cache.Evictions - svBefore.Cache.Evictions)
		if hits+misses > 0 {
			m["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		m["serve.batches"] = float64(st.Batches - svBefore.Batches)
		m["serve.batched_specs"] = float64(st.BatchedSpecs - svBefore.BatchedSpecs)
		m["serve.coalesced"] = float64(st.Coalesced - svBefore.Coalesced)
		m["serve.rejected"] = float64(st.Rejected - svBefore.Rejected)
	}
	if lr, ok := inst.(layerReporter); ok {
		lr.layer(tr.lat, m)
	}

	var profSamples int64
	shares := map[string]float64{"other": 100}
	if profiling {
		if shares, profSamples, err = budgetShares(profile.Bytes()); err != nil {
			return nil, nil, err
		}
	}
	for _, b := range budgetNames {
		m["budget."+b+"_pct"], samples["budget."+b+"_pct"] = shares[b], int(profSamples)
	}

	pm, pn, err := runProbes(in.smoke, o.outDir)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range pm {
		m[k], samples[k] = v, pn[k]
	}
	if w.name == "serve-churn" {
		// What a miss waited beyond its own simulation: the batch window.
		m["serve.batch_wait_ms"] = ms(quantile(lat, 0.5)) - pm["bench.evalspec_cold_ms"]
		samples["serve.batch_wait_ms"] = refOps
	}

	for _, def := range perLayer() {
		n, ok := samples[def.Name]
		if !ok {
			n = in.n
		}
		rec.set(def, m[def.Name], n)
	}
	if o.outDir != "" {
		if profiling {
			if err = os.WriteFile(filepath.Join(o.outDir, w.name+".cpu.pprof"), profile.Bytes(), 0o644); err != nil {
				return nil, nil, err
			}
		}
		if err = writeChromeTrace(filepath.Join(o.outDir, w.name+".spans.json"), w.name, tr.wall, tr.log); err != nil {
			return nil, nil, err
		}
	}
	return tr, inst, nil
}

// peakRSSMB reads the process's resident-set high-water mark (0 where
// /proc is absent).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
