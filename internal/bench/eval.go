package bench

// Spec-driven evaluation: the bridge between the canonical experiment spec
// (internal/spec), the content-addressed result cache (internal/cache), and
// the workload implementations in this package. EvalSpec answers the
// what-if question one spec poses — predicted time, critical path, traffic
// matrix — as a canonically encoded JSON document; Eval is the same answer
// for a spec its caller has already validated and hashed.
//
// Caching contract: the cache stores the *encoded bytes* under the spec's
// content hash, and a hit returns those bytes verbatim, so a cached answer
// is byte-identical to a fresh one by construction (the simulator is
// bit-deterministic per spec; eval_test.go pins this under -race at
// GOMAXPROCS 1 vs 8). Everything inside a Result is virtual-time data —
// no wall clock, no host facts — which is what makes the bytes a pure
// function of the spec.

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/solver/cg"
	"repro/internal/solver/jacobi"
	"repro/internal/sparse"
	"repro/internal/spec"
	"repro/internal/trace"
)

// maxCommRanks caps the rank count above which Result omits the dense
// rank-to-rank matrices (totals stay): a 4096-rank sweep would otherwise
// embed two 4096x4096 matrices in every response.
const maxCommRanks = 128

// critSummary is the critical-path breakdown of a run, in nanoseconds of
// virtual time (trace.CriticalPath; Compute+Intra+Inter+Blocked == End).
type critSummary struct {
	Spans     int   `json:"spans"`
	LenNs     int64 `json:"len_ns"`
	EndNs     int64 `json:"end_ns"`
	ComputeNs int64 `json:"compute_ns"`
	IntraNs   int64 `json:"intra_ns"`
	InterNs   int64 `json:"inter_ns"`
	BlockedNs int64 `json:"blocked_ns"`
}

// commMatrix is the rank-to-rank traffic of a run. The dense matrices are
// omitted above maxCommRanks; the totals always hold the full traffic.
type commMatrix struct {
	Ranks      int       `json:"ranks"`
	TotalBytes int64     `json:"total_bytes"`
	Transfers  int64     `json:"transfers"`
	Bytes      [][]int64 `json:"bytes,omitempty"`
	Count      [][]int64 `json:"count,omitempty"`
}

// Result is the evaluation of one spec: the workload's headline value plus
// the critical-path and traffic views a what-if query wants. All quantities
// are virtual-time; the encoded form (Encode) is the unit of caching.
type Result struct {
	// Spec is the normalized spec the result answers; Hash its content
	// address (the cache key).
	Spec spec.Spec `json:"spec"`
	Hash string    `json:"hash"`
	// Value is the workload's headline number in Unit: one-way latency in
	// "ns" (net-latency), "B/s" (net-bandwidth), per-iteration virtual
	// time in "ns" (allreduce), or the timed section's total in "ns"
	// (jacobi, cg).
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// EndNs is the virtual end time of the whole run; Topology the resolved
	// fabric description (auto-sized parameters filled in).
	EndNs    int64       `json:"end_ns"`
	Topology string      `json:"topology"`
	Critical critSummary `json:"critical_path"`
	Comm     *commMatrix `json:"comm_matrix,omitempty"`
}

// Encode renders the canonical byte form of the result: compact JSON plus a
// trailing newline. encoding/json emits struct fields in declaration order,
// so equal results always encode to equal bytes — the property that makes
// the encoding cacheable under the spec hash.
func (r Result) Encode() ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeResult parses an encoded result.
func DecodeResult(b []byte) (Result, error) {
	var r Result
	err := json.Unmarshal(b, &r)
	return r, err
}

// EvalOptions configures spec evaluation.
type EvalOptions struct {
	// cache, when non-nil, is consulted before simulating and filled after;
	// nil always simulates.
	cache *cache.Cache
}

// EvalSpec evaluates one spec, returning the canonical encoded Result and
// whether it came from the cache: Validate, Hash, then Eval.
func EvalSpec(s spec.Spec, opt EvalOptions) ([]byte, bool, error) {
	if err := s.Validate(); err != nil {
		return nil, false, err
	}
	return Eval(s, s.Hash(), opt.cache)
}

// Eval evaluates a validated spec whose hash h the caller holds: a hit in c
// returns the stored bytes verbatim, a miss simulates the cell with a private
// trace log, encodes and stores (a nil c always simulates).
func Eval(s spec.Spec, h string, c *cache.Cache) ([]byte, bool, error) {
	if body, ok := c.Get(h); ok {
		return body, true, nil
	}
	res, err := evalCold(s.Normalize(), h)
	if err != nil {
		return nil, false, err
	}
	body, err := res.Encode()
	if err != nil {
		return nil, false, err
	}
	c.Put(h, body)
	return body, false, nil
}

// evalCold simulates the (normalized, validated) spec through runSpec and
// assembles the Result. The trace log is private to the cell per sweep's
// observability ownership rule.
func evalCold(n spec.Spec, hash string) (Result, error) {
	log := trace.New()
	v, rep, err := runSpec(n, &collector{log: log})
	if err != nil {
		return Result{}, err
	}
	return newResult(n, hash, v, rep, log), nil
}

// newResult assembles the Result of the cell n that answered v and rep and
// recorded log.
func newResult(n spec.Spec, hash string, v float64, rep core.Report, log *trace.Log) Result {
	res := Result{Spec: n, Hash: hash, Value: v, Unit: "ns",
		EndNs: int64(rep.End), Topology: rep.Topology.Describe()}
	if n.Workload == spec.WorkloadNetBandwidth {
		res.Unit = "B/s"
	}
	spans := log.Sorted()
	cp := trace.CriticalPath(spans)
	res.Critical = critSummary{
		Spans:     cp.Count(),
		LenNs:     int64(cp.Len),
		EndNs:     int64(cp.End),
		ComputeNs: int64(cp.Compute),
		IntraNs:   int64(cp.Intra),
		InterNs:   int64(cp.Inter),
		BlockedNs: int64(cp.Blocked),
	}
	res.Comm = commSummary(spans)
	return res
}

// runSpec is the one door from a spec to a simulation: it runs the cell s
// pins with col's instruments and returns its headline value in the
// workload's unit — one-way latency in ns (net-latency), bytes/second
// (net-bandwidth), per-iteration ns (allreduce), the timed section's total
// in ns (jacobi, cg) — and the run report (an application's carries its end
// only). s must be valid (spec.Spec.Validate).
func runSpec(s spec.Spec, col *collector) (float64, core.Report, error) {
	var rep core.Report
	m, err := s.Model()
	if err != nil {
		return 0, rep, err
	}
	switch s.Workload {
	case spec.WorkloadNetLatency, spec.WorkloadNetBandwidth:
		cfg, err := netConfig(s, m, col)
		if err != nil {
			return 0, rep, err
		}
		if s.Workload == spec.WorkloadNetBandwidth {
			return bandwidthRun(cfg)
		}
		lat, rep, err := LatencyRun(cfg)
		return float64(lat), rep, err
	case spec.WorkloadAllreduce:
		cfg, err := scaleConfig(s, m, col)
		if err != nil {
			return 0, rep, err
		}
		per, rep, err := ScaleAllreduce(cfg)
		return float64(per), rep, err
	case spec.WorkloadJacobi, spec.WorkloadCG:
		backend, err := s.BackendID()
		if err != nil {
			return 0, rep, err
		}
		impl, mode := s.Implementation()
		if s.Workload == spec.WorkloadJacobi {
			res, err := jacobi.Run(jacobi.Config{Model: m, NGPUs: s.Ranks, NX: s.NX, NY: s.NY,
				Iters: s.Iters, Warmup: s.Warmup, Compute: s.Compute, Variant: impl, Backend: backend, Mode: mode,
				Trace: col.log, Metrics: col.metrics})
			return float64(res.Total), core.Report{End: res.End}, err
		}
		mat, err := Matrix(s)
		if err != nil {
			return 0, rep, err
		}
		res, err := cg.Run(cg.Config{Model: m, NGPUs: s.Ranks, Matrix: mat, Iters: s.Iters,
			DisableAllgatherv: s.NoAllgatherv, Variant: impl, Backend: backend, Mode: mode,
			Trace: col.log, Metrics: col.metrics})
		return float64(res.Total), core.Report{End: res.End}, err
	default:
		return 0, rep, fmt.Errorf("bench: unknown workload %q", s.Workload)
	}
}

// cgGenerators are the synthetic look-alikes a cg spec's serena and queen
// matrices name.
var cgGenerators = map[string]sparse.SyntheticSPDSpec{
	spec.MatrixSerena: sparse.Serena(),
	spec.MatrixQueen:  sparse.Queen4147(),
}

// maxMatrices bounds the CG systems Matrix keeps: the two of a Fig. 6 run.
// A paper-scale phantom holds up to 33 MB of row offsets.
const maxMatrices = 2

// matrices holds the systems Matrix built last, least recently used first.
var matrices struct {
	sync.Mutex
	recent []*builtMatrix
	builds int // how many systems Matrix has built
}

// builtMatrix is one (matrix, scale) system, built once by whichever cell
// asks first while the others wait.
type builtMatrix struct {
	name  string
	scale float64
	once  sync.Once
	csr   *sparse.CSR
}

// Matrix returns the system the cg spec s names: the Serena- or
// Queen_4147-like phantom at s.Scale (a modelled cell reads only row
// offsets; DESIGN.md §11) or the 64x64x64 Laplacian. A run builds each
// (matrix, scale) once — the cells of a sweep and the renderer that titles
// them share it — while it stays among the maxMatrices last asked for.
func Matrix(s spec.Spec) (*sparse.CSR, error) {
	if err := spec.CheckMatrix(s.Matrix, s.Scale); err != nil {
		return nil, err
	}
	matrices.Lock()
	i := slices.IndexFunc(matrices.recent, func(b *builtMatrix) bool { return b.name == s.Matrix && b.scale == s.Scale })
	var b *builtMatrix
	if i >= 0 {
		b = matrices.recent[i]
		matrices.recent = slices.Delete(matrices.recent, i, i+1)
	} else {
		b = &builtMatrix{name: s.Matrix, scale: s.Scale}
		if len(matrices.recent) == maxMatrices {
			matrices.recent = slices.Delete(matrices.recent, 0, 1)
		}
	}
	matrices.recent = append(matrices.recent, b)
	matrices.Unlock()
	b.once.Do(func() {
		if gen, ok := cgGenerators[b.name]; ok {
			b.csr = gen.Phantom(b.scale)
		} else {
			b.csr = sparse.Laplace3D(64, 64, 64)
		}
		matrices.Lock()
		matrices.builds++
		matrices.Unlock()
	})
	return b.csr, nil
}

// scaleConfig is the allreduce cell s pins on the machine m, recording into
// col's instruments.
func scaleConfig(s spec.Spec, m *machine.Model, col *collector) (ScaleConfig, error) {
	alg, err := s.AllreduceAlg()
	return ScaleConfig{Model: m, Ranks: s.Ranks, Bytes: s.Bytes, Alg: alg,
		Iters: s.Iters, Warmup: s.Warmup, Metrics: col.metrics, Trace: col.log}, err
}

// netConfig is the net cell s pins on the machine m, recording into col's
// instruments.
func netConfig(s spec.Spec, m *machine.Model, col *collector) (NetConfig, error) {
	cfg := NetConfig{Model: m, Native: s.Native, Inter: s.Inter, Bytes: s.Bytes,
		Iters: s.Iters, Warmup: s.Warmup, window: s.Window,
		trace: col.log, metrics: col.metrics}
	var err error
	if cfg.Backend, err = s.BackendID(); err != nil {
		return cfg, err
	}
	if cfg.API, err = s.APIKind(); err != nil {
		return cfg, err
	}
	cfg.faults, err = specPlan(s, cfg)
	return cfg, err
}

// SweepSpecs is the observed sweep over spec cells: it validates every spec
// before any cell runs, runs each through runSpec with the instruments obs
// decides on, and returns the values and the cells' frozen profiles in index
// order (on failure, those of the cells before the first failing one, and
// the failing cell's error prefixed with its spec's label). A
// profile is labelled with its spec and noted with its value; callers
// relabel it as their outputs name the cell.
func SweepSpecs(obs *Observe, specs []spec.Spec) ([]float64, []CellProfile, error) {
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, nil, err
		}
	}
	return sweep(obs, len(specs), func(i int, col *collector) (float64, CellProfile, error) {
		s := specs[i]
		v, rep, err := runSpec(s, col)
		if err != nil {
			err = fmt.Errorf("%s: %w", s, err)
		}
		note := fmt.Sprintf("one-way latency %s", sim.Duration(v))
		switch s.Workload {
		case spec.WorkloadNetBandwidth:
			note = fmt.Sprintf("bandwidth %.4f GB/s", v/1e9)
		case spec.WorkloadAllreduce:
			note = fmt.Sprintf("per-iteration %s", sim.Duration(v))
		case spec.WorkloadJacobi, spec.WorkloadCG:
			total := sim.Duration(v)
			note = fmt.Sprintf("per-iteration %s over %d iterations (total %s)",
				total/sim.Duration(s.Iters), s.Iters, total)
		}
		return v, col.finish(s.String(), rep.End, note), err
	})
}

// commSummary builds the traffic view: the totals from one pass over the
// spans, the dense matrices only up to maxCommRanks.
func commSummary(spans *trace.View) *commMatrix {
	n, bytes, msgs := spans.Traffic()
	if n == 0 {
		return nil
	}
	cs := &commMatrix{Ranks: n, TotalBytes: bytes, Transfers: msgs}
	if n <= maxCommRanks {
		cm := trace.BuildCommMatrix(spans)
		cs.Bytes, cs.Count = cm.Bytes, cm.Count
	}
	return cs
}

// specPlan builds the spec's fault plan for a net workload: degrade ramps
// the benchmarked path (inter-node when Inter is set, intra-node otherwise);
// generate draws the seed-deterministic randomized plan of link faults, NIC
// stall windows and slow ranks over the fabric the run's two ranks span: one
// node intra-node, two inter-node.
func specPlan(s spec.Spec, cfg NetConfig) (*faults.Plan, error) {
	switch s.FaultMode {
	case spec.FaultNone:
		return nil, nil
	case spec.FaultDegrade:
		path := fabric.PathIntra
		if s.Inter {
			path = fabric.PathInter
		}
		return faults.Degrade(path, s.Severity), nil
	case spec.FaultGenerate:
		m := cfg.model()
		return faults.Generate(s.Seed, s.Severity, m.FabricConfig(m.NodesFor(2)), sim.Second), nil
	default:
		return nil, fmt.Errorf("bench: unknown fault mode %q", s.FaultMode)
	}
}
