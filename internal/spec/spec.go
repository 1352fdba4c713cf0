// Package spec defines the canonical, serializable experiment specification
// shared by every CLI and by the what-if service (uniconn serve): one
// value that pins a simulation cell completely — workload, machine, backend,
// API flavour, topology, message size, seed, and fault plan —
// together with a stable content hash.
//
// The hash is the content address of the cell's result: two specs with the
// same hash always describe the same deterministic simulation (the engine is
// bit-reproducible, see DESIGN.md §8), so a result cached under the hash
// can be served for every later occurrence of the spec without re-simulating.
// Injectivity is the load-bearing property — distinct specs must never
// collide — so the hash covers every field explicitly through a versioned,
// canonical encoding (appendPayload), never through map iteration or float
// formatting that could drift between processes. Stability across process
// restarts is pinned by golden tests in spec_test.go.
package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/mpi"
)

// The registered workloads. workloads(), not iota constants, is the source
// of truth the injectivity tests sweep.
const (
	// WorkloadNetLatency is the OSU-style ping-pong one-way latency cell
	// (bench.LatencyRun); Value is the one-way latency in nanoseconds.
	WorkloadNetLatency = "net-latency"
	// WorkloadNetBandwidth is the windowed one-way bandwidth cell
	// (bench.bandwidthRun); Value is bytes/second.
	WorkloadNetBandwidth = "net-bandwidth"
	// WorkloadAllreduce is the rank-scaling allreduce cell
	// (bench.ScaleAllreduce); Value is the per-iteration virtual time in
	// nanoseconds.
	WorkloadAllreduce = "allreduce"
)

// workloads lists every registered workload name.
func workloads() []string {
	return []string{WorkloadNetLatency, WorkloadNetBandwidth, WorkloadAllreduce}
}

// The fault-plan modes a spec can request (net workloads only).
const (
	// FaultNone (the empty string) runs the healthy fabric.
	FaultNone = ""
	// FaultDegrade uniformly degrades the benchmarked path at Severity
	// (faults.Degrade).
	FaultDegrade = "degrade"
	// FaultGenerate injects the seed-deterministic randomized plan
	// (faults.Generate) at Severity.
	FaultGenerate = "generate"
)

// Spec pins one simulation cell. The zero value of every field selects the
// workload's documented default (Normalize makes the defaults explicit), so
// JSON bodies can stay minimal: {"workload":"net-latency","bytes":4096}.
//
// Specs are plain data: they marshal to/from JSON losslessly (round-trip
// property test in spec_test.go) and hash stably (Hash).
type Spec struct {
	// Workload selects the cell kind; see workloads().
	Workload string `json:"workload"`
	// Machine is the machine model name (machine.ByName); default Perlmutter.
	Machine string `json:"machine,omitempty"`
	// Backend is the communication library: MPI | GPUCCL | GPUSHMEM.
	Backend string `json:"backend,omitempty"`
	// API selects host- or device-initiated communication: Host | Device.
	API string `json:"api,omitempty"`
	// Native selects the library's own API instead of UNICONN (net only).
	Native bool `json:"native,omitempty"`
	// Inter places the two net ranks on different nodes (net only).
	Inter bool `json:"inter,omitempty"`
	// Ranks is the GPU count of the allreduce workload (>= 2).
	Ranks int `json:"ranks,omitempty"`
	// Bytes is the message / per-rank vector size (positive multiple of 8).
	Bytes int64 `json:"bytes"`
	// Iters/Warmup override the workload's iteration defaults; 0 keeps them.
	Iters  int `json:"iters,omitempty"`
	Warmup int `json:"warmup,omitempty"`
	// Window is the bandwidth test's in-flight message count (0 = 64).
	Window int `json:"window,omitempty"`
	// Alg forces an allreduce algorithm: auto | rd | ring | hierarchical.
	Alg string `json:"alg,omitempty"`
	// Topology is the inter-node network spec, in the CLI -topology syntax:
	// flat | fattree[:k] | dragonfly[:p,a,h]. Default flat.
	Topology string `json:"topology,omitempty"`
	// Seed is the fault-plan seed (FaultGenerate).
	Seed uint64 `json:"seed,omitempty"`
	// FaultMode selects the injected plan: "" | degrade | generate.
	FaultMode string `json:"fault_mode,omitempty"`
	// Severity is the fault severity (>= 0; meaningful with FaultMode).
	Severity float64 `json:"severity,omitempty"`
}

// Normalize fills the canonical defaults into the string-valued fields so
// that semantically identical specs hash identically: {"machine":""} and
// {"machine":"Perlmutter"} address the same cell. Numeric zero values stay
// zero — they mean "workload default" and are canonical as-is.
func (s Spec) Normalize() Spec {
	n, _, _ := s.normalize()
	return n
}

// normalize is Normalize plus the parsed topology and its parse error, for
// Validate.
func (s Spec) normalize() (Spec, fabric.TopologyConfig, error) {
	if s.Machine == "" {
		s.Machine = "Perlmutter"
	}
	if s.Backend == "" {
		s.Backend = "MPI"
	}
	if s.API == "" {
		s.API = "Host"
	}
	if s.Alg == "" {
		s.Alg = "auto"
	}
	if s.Topology == "" {
		s.Topology = "flat"
	}
	// Canonicalize topology spelling ("fat-tree:4" == "fattree:4") when it
	// parses; Validate reports the error otherwise.
	tc, err := fabric.ParseTopology(s.Topology)
	if err == nil {
		s.Topology = canonicalTopology(tc)
	}
	return s, tc, err
}

// canonicalTopology renders a TopologyConfig in the canonical unresolved
// spec syntax (auto-sized parameters stay 0, since resolution depends on the
// node count): "flat", "fattree:4", "fattree", "dragonfly:1,2,2".
func canonicalTopology(tc fabric.TopologyConfig) string {
	switch tc.Kind {
	case fabric.TopoFatTree:
		if tc.FatTreeArity == 0 {
			return "fattree"
		}
		return fmt.Sprintf("fattree:%d", tc.FatTreeArity)
	case fabric.TopoDragonfly:
		if tc.DragonflyHosts == 0 && tc.DragonflyRouters == 0 && tc.DragonflyGlobal == 0 {
			return "dragonfly"
		}
		return fmt.Sprintf("dragonfly:%d,%d,%d",
			tc.DragonflyHosts, tc.DragonflyRouters, tc.DragonflyGlobal)
	default:
		return "flat"
	}
}

// CheckSeverity is Validate's rule for a fault severity: finite and >= 0.
func CheckSeverity(v float64) error {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("severity must be finite and >= 0 (got %g)", v)
	}
	return nil
}

// Admission bounds, each above every value a CLI, test, autosel probe or
// benchmark spec uses: one spec may not pin a serve slot for hours or
// overflow virtual time.
const (
	maxRanks  = 4096    // the largest cell uniconn scale runs
	maxIters  = 100_000 // iters + warmup: the paper's largest OSU count
	maxWindow = 1024
	maxBytes  = 1 << 30
)

// Validate reports whether the spec describes a runnable cell. It validates
// only what the spec layer owns (names parse, sizes are legal and bounded, the
// machine supports the backend, the topology holds the allreduce's nodes);
// the workload's own Validate runs at launch. It normalises once and builds
// no machine model.
func (s Spec) Validate() error {
	n, tc, topoErr := s.normalize()
	switch n.Workload {
	case WorkloadNetLatency, WorkloadNetBandwidth:
		if n.Ranks != 0 {
			return fmt.Errorf("spec: %s: ranks is not a net-workload field (always 2)", n.Workload)
		}
		if n.Alg != "auto" {
			return fmt.Errorf("spec: alg %q is an allreduce field", n.Alg)
		}
	case WorkloadAllreduce:
		if n.Ranks < 2 || n.Ranks > maxRanks {
			return fmt.Errorf("spec: allreduce needs 2 <= ranks <= %d (got %d)", maxRanks, n.Ranks)
		}
		if n.Native || n.Inter {
			return fmt.Errorf("spec: native/inter are net-workload fields")
		}
		if n.Window != 0 {
			return fmt.Errorf("spec: window is a net-bandwidth field")
		}
		if n.FaultMode != FaultNone {
			return fmt.Errorf("spec: fault modes apply to net workloads only (got %q)", n.FaultMode)
		}
	default:
		return fmt.Errorf("spec: unknown workload %q (%s)", n.Workload, strings.Join(workloads(), "|"))
	}
	known, hasShmem := machine.Lookup(n.Machine)
	if !known {
		return fmt.Errorf("spec: unknown machine %q", n.Machine)
	}
	if topoErr != nil {
		return topoErr
	}
	// Every valid network holds a net cell's two nodes; an allreduce may
	// outgrow an explicit one.
	if n.Workload == WorkloadAllreduce {
		if _, err := fabric.ResolveTopology(tc, machine.NodesFor(n.Machine, n.Ranks)); err != nil {
			return fmt.Errorf("spec: topology %s: %w", n.Topology, err)
		}
	}
	backend, err := n.BackendID()
	if err != nil {
		return err
	}
	api, err := n.APIKind()
	if err != nil {
		return err
	}
	if backend == core.GpushmemBackend && !hasShmem {
		return fmt.Errorf("spec: %s has no GPUSHMEM", n.Machine)
	}
	if api == machine.APIDevice && backend != core.GpushmemBackend {
		return fmt.Errorf("spec: the device API requires the GPUSHMEM backend")
	}
	if _, err := n.AllreduceAlg(); err != nil {
		return err
	}
	if n.Bytes < 8 || n.Bytes%8 != 0 || n.Bytes > maxBytes {
		return fmt.Errorf("spec: bytes must be a positive multiple of 8 up to %d (got %d)", maxBytes, n.Bytes)
	}
	if n.Iters < 0 || n.Warmup < 0 || n.Window < 0 {
		return fmt.Errorf("spec: iters/warmup/window must be >= 0")
	}
	if n.Iters > maxIters || n.Warmup > maxIters-n.Iters || n.Window > maxWindow {
		return fmt.Errorf("spec: iters+warmup must be <= %d and window <= %d", maxIters, maxWindow)
	}
	switch n.FaultMode {
	case FaultNone, FaultDegrade, FaultGenerate:
	default:
		return fmt.Errorf("spec: unknown fault mode %q (degrade|generate)", n.FaultMode)
	}
	if err := CheckSeverity(n.Severity); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if n.FaultMode == FaultNone && n.Severity != 0 {
		return fmt.Errorf("spec: severity %g without a fault mode", n.Severity)
	}
	return nil
}

// hashVersion tags the canonical encoding. Bump it whenever a field is
// added or the encoding changes, so old cached results are never served for
// a spec the new code would run differently.
const hashVersion = "uniconn-spec/v1"

// legacyWindowed is the value of v1's "windowed" line, which recorded whether
// a spec chose the since-removed windowed engine (DESIGN.md §12). Every v1
// address, disk-cache entry and serve golden digest was computed with the
// line present, so it is emitted as a constant; drop it with the next
// hashVersion bump.
const legacyWindowed = "false"

// appendPayload appends the canonical pre-image of the content hash to b:
// every field, normalized, in fixed order, with exact encodings (hex floats,
// decimal ints). FuzzSpecHash checks it against a reference encoder.
func (s Spec) appendPayload(b []byte) []byte {
	n := s.Normalize()
	field := func(b []byte, name string) []byte { return append(append(append(b, '\n'), name...), '=') }
	b = append(b, hashVersion...)
	b = append(field(b, "workload"), n.Workload...)
	b = append(field(b, "machine"), n.Machine...)
	b = append(field(b, "backend"), n.Backend...)
	b = append(field(b, "api"), n.API...)
	b = strconv.AppendBool(field(b, "native"), n.Native)
	b = strconv.AppendBool(field(b, "inter"), n.Inter)
	b = strconv.AppendInt(field(b, "ranks"), int64(n.Ranks), 10)
	b = strconv.AppendInt(field(b, "bytes"), n.Bytes, 10)
	b = strconv.AppendInt(field(b, "iters"), int64(n.Iters), 10)
	b = strconv.AppendInt(field(b, "warmup"), int64(n.Warmup), 10)
	b = strconv.AppendInt(field(b, "window"), int64(n.Window), 10)
	b = append(field(b, "alg"), n.Alg...)
	b = append(field(b, "topology"), n.Topology...)
	b = append(field(b, "windowed"), legacyWindowed...)
	b = strconv.AppendUint(field(b, "seed"), n.Seed, 10)
	b = append(field(b, "fault_mode"), n.FaultMode...)
	// Hex float formatting is exact: every distinct float64 has a distinct
	// encoding, and the encoding never depends on locale or printf rounding.
	return strconv.AppendFloat(field(b, "severity"), n.Severity, 'x', -1, 64)
}

// Hash returns the spec's content address: the hex SHA-256 of the canonical
// encoding. Equal-by-meaning specs (Normalize-equal) share a hash; distinct
// specs never collide (injectivity of the pre-image plus SHA-256). Both the
// pre-image and the hex digits use one stack buffer.
func (s Spec) Hash() string {
	var buf [256]byte
	sum := sha256.Sum256(s.appendPayload(buf[:0]))
	return string(hex.AppendEncode(buf[:0], sum[:]))
}

// Model resolves the machine model with the spec's topology applied (on a
// clone when the topology is not flat, so shared models stay untouched).
func (s Spec) Model() (*machine.Model, error) {
	n := s.Normalize()
	m := machine.ByName(n.Machine)
	if m == nil {
		return nil, fmt.Errorf("spec: unknown machine %q", n.Machine)
	}
	tc, err := fabric.ParseTopology(n.Topology)
	if err != nil {
		return nil, err
	}
	return WithTopology(m, tc), nil
}

// BackendID parses the backend name.
func (s Spec) BackendID() (core.BackendID, error) {
	return ParseBackend(s.Normalize().Backend)
}

// APIKind parses the API flavour.
func (s Spec) APIKind() (machine.API, error) {
	switch s.Normalize().API {
	case "Host", "host":
		return machine.APIHost, nil
	case "Device", "device":
		return machine.APIDevice, nil
	default:
		return 0, fmt.Errorf("spec: unknown API %q (Host|Device)", s.API)
	}
}

// AllreduceAlg parses the allreduce algorithm name.
func (s Spec) AllreduceAlg() (mpi.AllreduceAlg, error) {
	switch s.Normalize().Alg {
	case "auto":
		return mpi.AlgAuto, nil
	case "rd":
		return mpi.AlgRecursiveDoubling, nil
	case "ring":
		return mpi.AlgRing, nil
	case "hierarchical":
		return mpi.AlgHierarchical, nil
	default:
		return 0, fmt.Errorf("spec: unknown allreduce alg %q (auto|rd|ring|hierarchical)", s.Alg)
	}
}

// ParseBackend parses a backend name as the CLIs spell it.
func ParseBackend(name string) (core.BackendID, error) {
	switch name {
	case "MPI":
		return core.MPIBackend, nil
	case "GPUCCL":
		return core.GpucclBackend, nil
	case "GPUSHMEM":
		return core.GpushmemBackend, nil
	default:
		return 0, fmt.Errorf("spec: unknown backend %q (MPI|GPUCCL|GPUSHMEM)", name)
	}
}

// String renders a short human label for progress displays and logs.
func (s Spec) String() string {
	n := s.Normalize()
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/%s", n.Workload, n.Machine, n.Backend)
	if n.Workload == WorkloadAllreduce {
		fmt.Fprintf(&b, "/r%d", n.Ranks)
	}
	fmt.Fprintf(&b, "/%dB", n.Bytes)
	if n.Topology != "flat" {
		fmt.Fprintf(&b, "/%s", n.Topology)
	}
	if n.FaultMode != FaultNone {
		fmt.Fprintf(&b, "/%s%.2f", n.FaultMode, n.Severity)
	}
	return b.String()
}

// WithTopology returns the model carrying the topology: the model itself
// when it already matches, a clone otherwise. This is the clone-on-override
// rule every CLI used to hand-roll (shared machine.Model values are never
// mutated).
func WithTopology(m *machine.Model, tc fabric.TopologyConfig) *machine.Model {
	if m.Topology == tc {
		return m
	}
	m2 := *m
	m2.Topology = tc
	return &m2
}
