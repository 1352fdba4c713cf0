package bench

// Spec-driven evaluation: the bridge between the canonical experiment spec
// (internal/spec), the content-addressed result cache (internal/cache), and
// the workload implementations in this package. EvalSpec answers the
// what-if question one spec poses — predicted time, critical path, traffic
// matrix — as a canonically encoded JSON document; EvalSpecs fans a batch
// out over the sweep runner.
//
// Caching contract: the cache stores the *encoded bytes* under the spec's
// content hash, and a hit returns those bytes verbatim, so a cached answer
// is byte-identical to a fresh one by construction (the simulator is
// bit-deterministic per spec; eval_test.go pins this under -race at
// workers 1 vs 8). Everything inside a Result is virtual-time data —
// no wall clock, no host facts — which is what makes the bytes a pure
// function of the spec.

import (
	"encoding/json"
	"fmt"

	"repro/internal/cache"
	"repro/internal/faults"
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
	// "ns" (net-latency), "B/s" (net-bandwidth), or per-iteration virtual
	// time in "ns" (allreduce).
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
// whether it came from the cache. A hit returns the stored bytes verbatim
// (byte-identical to a fresh evaluation); a miss simulates the cell with a
// private trace log, encodes, stores, and returns.
func EvalSpec(s spec.Spec, opt EvalOptions) ([]byte, bool, error) {
	if err := s.Validate(); err != nil {
		return nil, false, err
	}
	h := s.Hash()
	if body, ok := opt.cache.Get(h); ok {
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
	opt.cache.Put(h, body)
	return body, false, nil
}

// Evaluation is one EvalSpecs outcome. Err is per-item: a failing spec
// reports here without aborting its batch-mates (the what-if service must
// answer the healthy queries of a batch even when one is unrunnable).
type Evaluation struct {
	Body []byte
	Hit  bool
	Err  error
}

// EvalSpecs evaluates a batch over the sweep runner: cells fan out with the
// usual determinism contract (index-ordered results), cache hits
// short-circuit. Duplicate specs within a batch may race to simulate; both
// produce identical bytes, so the last Put is indistinguishable from the
// first.
func EvalSpecs(specs []spec.Spec, c *cache.Cache) []Evaluation {
	out, _ := Sweep(len(specs), func(i int) (Evaluation, error) {
		s := specs[i]
		body, hit, err := EvalSpec(s, EvalOptions{cache: c})
		if err != nil {
			return Evaluation{Err: fmt.Errorf("spec %s: %w", s, err)}, nil
		}
		return Evaluation{Body: body, Hit: hit}, nil
	})
	return out
}

// evalCold simulates the (normalized, validated) spec and assembles the
// Result. The trace log is private to the cell per the runner's
// observability ownership rule.
func evalCold(n spec.Spec, hash string) (Result, error) {
	m, err := n.Model()
	if err != nil {
		return Result{}, err
	}
	backend, err := n.BackendID()
	if err != nil {
		return Result{}, err
	}
	api, err := n.APIKind()
	if err != nil {
		return Result{}, err
	}
	log := trace.New()
	res := Result{Spec: n, Hash: hash}
	switch n.Workload {
	case spec.WorkloadNetLatency, spec.WorkloadNetBandwidth:
		cfg := NetConfig{
			Model: m, Backend: backend, API: api,
			Native: n.Native, Inter: n.Inter, Bytes: n.Bytes,
			Iters: n.Iters, Warmup: n.Warmup, window: n.Window,
			trace: log,
		}
		cfg.faults, err = specPlan(n, cfg)
		if err != nil {
			return Result{}, err
		}
		if n.Workload == spec.WorkloadNetLatency {
			lat, rep, err := LatencyRun(cfg)
			if err != nil {
				return Result{}, err
			}
			res.Value, res.Unit = float64(lat), "ns"
			res.EndNs = int64(rep.End)
			res.Topology = rep.Topology.Describe()
		} else {
			bw, rep, err := bandwidthRun(cfg)
			if err != nil {
				return Result{}, err
			}
			res.Value, res.Unit = bw, "B/s"
			res.EndNs = int64(rep.End)
			res.Topology = rep.Topology.Describe()
		}
	case spec.WorkloadAllreduce:
		alg, err := n.AllreduceAlg()
		if err != nil {
			return Result{}, err
		}
		cfg := ScaleConfig{
			Model: m, Ranks: n.Ranks, Bytes: n.Bytes, Alg: alg,
			Iters: n.Iters, Warmup: n.Warmup, Trace: log,
		}
		per, rep, err := ScaleAllreduce(cfg)
		if err != nil {
			return Result{}, err
		}
		res.Value, res.Unit = float64(per), "ns"
		res.EndNs = int64(rep.End)
		res.Topology = rep.Topology.Describe()
	default:
		return Result{}, fmt.Errorf("bench: unknown workload %q", n.Workload)
	}
	spans := log.Sorted()
	cp := trace.CriticalPath(spans)
	res.Critical = critSummary{
		Spans:     len(cp.Chain),
		LenNs:     int64(cp.Len),
		EndNs:     int64(cp.End),
		ComputeNs: int64(cp.Compute),
		IntraNs:   int64(cp.Intra),
		InterNs:   int64(cp.Inter),
		BlockedNs: int64(cp.Blocked),
	}
	res.Comm = commSummary(spans)
	return res, nil
}

// commSummary builds the traffic view, dropping the dense matrices above
// maxCommRanks.
func commSummary(spans []trace.Span) *commMatrix {
	cm := trace.BuildCommMatrix(spans)
	if cm.N == 0 {
		return nil
	}
	cs := &commMatrix{Ranks: cm.N}
	for src := range cm.Bytes {
		for dst := range cm.Bytes[src] {
			cs.TotalBytes += cm.Bytes[src][dst]
			cs.Transfers += cm.Count[src][dst]
		}
	}
	if cm.N <= maxCommRanks {
		cs.Bytes, cs.Count = cm.Bytes, cm.Count
	}
	return cs
}

// specPlan builds the spec's fault plan for a net workload, from the same
// sources as the chaos subcommand: degrade ramps the benchmarked path;
// generate draws the seed-deterministic randomized plan.
func specPlan(n spec.Spec, cfg NetConfig) (*faults.Plan, error) {
	switch n.FaultMode {
	case spec.FaultNone:
		return nil, nil
	case spec.FaultDegrade:
		return faults.Degrade(cfg.faultedPath(), n.Severity), nil
	case spec.FaultGenerate:
		return cfg.GeneratedPlans(n.Seed)(n.Severity), nil
	default:
		return nil, fmt.Errorf("bench: unknown fault mode %q", n.FaultMode)
	}
}
