// Package spec defines the canonical, serializable experiment specification
// shared by every CLI and by the what-if service (uniconn serve): one
// value that pins a simulation cell completely — workload, machine, backend,
// API flavour, topology, message size or application shape, seed, and fault
// plan — together with a stable content hash.
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
	"repro/internal/solver"
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
	// WorkloadJacobi is the Jacobi 2D stencil of Fig. 5 (solver/jacobi);
	// Value is the timed section's total virtual time in nanoseconds.
	WorkloadJacobi = "jacobi"
	// WorkloadCG is the Conjugate Gradient solve of Fig. 6 (solver/cg); Value
	// is the timed section's total virtual time in nanoseconds.
	WorkloadCG = "cg"
)

// workloads lists every registered workload name.
func workloads() []string {
	return []string{WorkloadNetLatency, WorkloadNetBandwidth, WorkloadAllreduce, WorkloadJacobi, WorkloadCG}
}

// app reports whether the workload is one of the two applications, whose
// iteration counts are literal and which read no message size.
func app(workload string) bool { return workload == WorkloadJacobi || workload == WorkloadCG }

// The matrices a cg spec can name.
const (
	// MatrixSerena is the Serena-like synthetic SPD matrix at Scale.
	MatrixSerena = "serena"
	// MatrixQueen is the Queen_4147-like synthetic SPD matrix at Scale.
	MatrixQueen = "queen"
	// MatrixLaplace is the 64x64x64 7-point Laplacian; it takes no Scale.
	MatrixLaplace = "laplace"
)

// APIPartial is the API value of UNICONN's partial-device launch on
// GPUSHMEM: halo payloads sent from inside the kernel, synchronised from the
// host (core.PartialDevice). Only the Jacobi kernel implements it (the
// SHMEM-P column).
const APIPartial = "Partial"

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
	// API selects host- or device-initiated communication: Host | Device,
	// or APIPartial for UNICONN Jacobi.
	API string `json:"api,omitempty"`
	// Native selects the library's own API instead of UNICONN (net and the
	// applications).
	Native bool `json:"native,omitempty"`
	// Inter places the two net ranks on different nodes (net only).
	Inter bool `json:"inter,omitempty"`
	// Ranks is the GPU count of the allreduce (>= 2) and of the applications
	// (>= 1).
	Ranks int `json:"ranks,omitempty"`
	// Bytes is the message / per-rank vector size (positive multiple of 8;
	// the applications read none).
	Bytes int64 `json:"bytes"`
	// Iters/Warmup override the net and allreduce workloads' iteration
	// defaults, where 0 keeps them. The applications take them as given:
	// iters >= 1, and cg takes no warm-up.
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
	// NX and NY are the Jacobi grid's row width and global row count.
	NX int `json:"nx,omitempty"`
	NY int `json:"ny,omitempty"`
	// Compute runs Jacobi's functional payload (real arithmetic, verifiable)
	// instead of modelling its kernels.
	Compute bool `json:"compute,omitempty"`
	// Matrix is the CG system: serena | queen | laplace.
	Matrix string `json:"matrix,omitempty"`
	// Scale sizes the serena and queen matrices, in (0, 1]; 1 is the paper's
	// size.
	Scale float64 `json:"scale,omitempty"`
	// NoAllgatherv skips CG's SpMV exchange: the §VI-D ablation.
	NoAllgatherv bool `json:"no_allgatherv,omitempty"`
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
		s.Topology = CanonicalTopology(tc)
	}
	return s, tc, err
}

// CanonicalTopology renders a TopologyConfig as a normalized spec's Topology
// spells it, in the unresolved syntax (auto-sized parameters stay 0, since
// resolution depends on the node count): "flat", "fattree:4", "fattree",
// "dragonfly:1,2,2". A CLI that sweeps a -topology list names each cell's
// network with it.
func CanonicalTopology(tc fabric.TopologyConfig) string {
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
// machine supports the backend, the topology holds the cell's nodes, and no
// field is set that the workload never reads); the workload's own Validate
// runs at launch. It normalises once and builds no machine model.
func (s Spec) Validate() error {
	n, tc, topoErr := s.normalize()
	switch n.Workload {
	case WorkloadNetLatency, WorkloadNetBandwidth:
	case WorkloadAllreduce:
		if n.Ranks < 2 || n.Ranks > maxRanks {
			return fmt.Errorf("spec: allreduce needs 2 <= ranks <= %d (got %d)", maxRanks, n.Ranks)
		}
	case WorkloadJacobi, WorkloadCG:
		if n.Ranks < 1 || n.Ranks > maxRanks {
			return fmt.Errorf("spec: %s needs 1 <= ranks <= %d (got %d)", n.Workload, maxRanks, n.Ranks)
		}
		// The counts are literal: 0 timed iterations is no run, not the
		// default.
		if n.Iters < 1 || n.Warmup < 0 {
			return fmt.Errorf("spec: %s: iters %d and warmup %d: need iters >= 1 and warmup >= 0",
				n.Workload, n.Iters, n.Warmup)
		}
	default:
		return fmt.Errorf("spec: unknown workload %q (%s)", n.Workload, strings.Join(workloads(), "|"))
	}
	if f := n.unread(); f != "" {
		return fmt.Errorf("spec: the %s workload does not read %s", n.Workload, f)
	}
	known, hasShmem := machine.Lookup(n.Machine)
	if !known {
		return fmt.Errorf("spec: unknown machine %q", n.Machine)
	}
	if topoErr != nil {
		return topoErr
	}
	// Every valid network holds a net cell's two nodes; an allreduce or an
	// application may outgrow an explicit one.
	if n.Ranks != 0 {
		if _, err := fabric.ResolveTopology(tc, machine.NodesFor(n.Machine, n.Ranks)); err != nil {
			return fmt.Errorf("spec: topology %s: %w", n.Topology, err)
		}
	}
	// n is normalized: its names parse without normalizing again.
	backend, err := ParseBackend(n.Backend)
	if err != nil {
		return err
	}
	api, err := parseAPI(n.API)
	if err != nil {
		return err
	}
	if backend == core.GpushmemBackend && !hasShmem {
		return fmt.Errorf("spec: %s has no GPUSHMEM", n.Machine)
	}
	if api == machine.APIDevice && backend != core.GpushmemBackend {
		return fmt.Errorf("spec: the device API requires the GPUSHMEM backend")
	}
	if n.API == APIPartial && (n.Workload != WorkloadJacobi || backend != core.GpushmemBackend || n.Native) {
		return fmt.Errorf("spec: api %s is UNICONN Jacobi's partial-device launch on GPUSHMEM only", APIPartial)
	}
	if _, err := parseAlg(n.Alg); err != nil {
		return err
	}
	if !app(n.Workload) && (n.Bytes < 8 || n.Bytes%8 != 0 || n.Bytes > maxBytes) {
		return fmt.Errorf("spec: bytes must be a positive multiple of 8 up to %d (got %d)", maxBytes, n.Bytes)
	}
	if n.Iters < 0 || n.Warmup < 0 || n.Window < 0 {
		return fmt.Errorf("spec: iters/warmup/window must be >= 0")
	}
	if n.Iters > maxIters || n.Warmup > maxIters-n.Iters || n.Window > maxWindow {
		return fmt.Errorf("spec: iters+warmup must be <= %d and window <= %d", maxIters, maxWindow)
	}
	if n.Workload == WorkloadCG {
		if err := CheckMatrix(n.Matrix, n.Scale); err != nil {
			return err
		}
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

// unread names the first field the normalized spec sets that its workload
// never reads, "" if there is none. A net cell always runs two ranks.
func (n Spec) unread() string {
	net := n.Workload == WorkloadNetLatency || n.Workload == WorkloadNetBandwidth
	all, jac, cg := n.Workload == WorkloadAllreduce, n.Workload == WorkloadJacobi, n.Workload == WorkloadCG
	for _, f := range [...]struct {
		name      string
		set, read bool
	}{
		{"ranks", n.Ranks != 0, !net},
		{"native", n.Native, !all},
		{"inter", n.Inter, net},
		{"bytes", n.Bytes != 0, net || all},
		{"window", n.Window != 0, net},
		{"alg", n.Alg != "auto", all},
		{"seed", n.Seed != 0, net || all},
		{"fault_mode", n.FaultMode != FaultNone, net},
		{"severity", math.Float64bits(n.Severity) != 0, net || all},
		{"warmup", n.Warmup != 0, !cg},
		{"nx", n.NX != 0, jac},
		{"ny", n.NY != 0, jac},
		{"compute", n.Compute, jac},
		{"matrix", n.Matrix != "", cg},
		{"scale", math.Float64bits(n.Scale) != 0, cg},
		{"no_allgatherv", n.NoAllgatherv, cg},
	} {
		if f.set && !f.read {
			return f.name
		}
	}
	return ""
}

// CheckMatrix is Validate's rule for a cg spec's system: a known matrix,
// with a scale in (0, 1] for the synthetic ones and none for the Laplacian.
func CheckMatrix(name string, scale float64) error {
	switch name {
	case MatrixSerena, MatrixQueen:
		if !(scale > 0 && scale <= 1) {
			return fmt.Errorf("spec: matrix %s needs a scale in (0, 1] (got %g)", name, scale)
		}
	case MatrixLaplace:
		if math.Float64bits(scale) != 0 {
			return fmt.Errorf("spec: matrix %s takes no scale (got %g)", name, scale)
		}
	default:
		return fmt.Errorf("spec: unknown matrix %q (%s|%s|%s)", name, MatrixSerena, MatrixQueen, MatrixLaplace)
	}
	return nil
}

// hashVersion tags the canonical encoding. Bump it whenever the encoding of
// an existing spec changes, so old cached results are never served for a
// spec the new code would run differently. A field that adds no line while
// it is zero, as the application fields (appLines), leaves every existing
// address as it was.
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
	b = strconv.AppendFloat(field(b, "severity"), n.Severity, 'x', -1, 64)
	if !n.appLines() {
		return b // every net and allreduce address is what it was before the applications
	}
	b = strconv.AppendInt(field(b, "nx"), int64(n.NX), 10)
	b = strconv.AppendInt(field(b, "ny"), int64(n.NY), 10)
	b = strconv.AppendBool(field(b, "compute"), n.Compute)
	b = append(field(b, "matrix"), n.Matrix...)
	b = strconv.AppendFloat(field(b, "scale"), n.Scale, 'x', -1, 64)
	return strconv.AppendBool(field(b, "no_allgatherv"), n.NoAllgatherv)
}

// appLines reports whether the pre-image carries the application fields:
// always for an application, and for any other spec that sets one, so two
// distinct specs never share a pre-image, valid or not.
func (n Spec) appLines() bool {
	return app(n.Workload) || n.NX != 0 || n.NY != 0 || n.Compute || n.Matrix != "" ||
		math.Float64bits(n.Scale) != 0 || n.NoAllgatherv
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

// APIKind parses the API flavour. The partial-device launch is
// host-initiated on the API axis: its synchronisation is the host's.
func (s Spec) APIKind() (machine.API, error) { return parseAPI(s.Normalize().API) }

// parseAPI is APIKind of a normalized spec's API value.
func parseAPI(name string) (machine.API, error) {
	switch name {
	case "Host", APIPartial:
		return machine.APIHost, nil
	case "Device":
		return machine.APIDevice, nil
	default:
		return 0, fmt.Errorf("spec: unknown API %q (Host|Device|%s)", name, APIPartial)
	}
}

// Implementation is the solver implementation an application spec runs and
// its launch mode: UNICONN, or with Native the backend's own library (by its
// device API for Device on GPUSHMEM); PureDevice for the device API,
// PartialDevice for APIPartial, PureHost otherwise. s must be valid.
func (s Spec) Implementation() (solver.Variant, core.LaunchMode) {
	n := s.Normalize()
	mode := core.PureHost
	switch n.API {
	case "Device":
		mode = core.PureDevice
	case APIPartial:
		mode = core.PartialDevice
	}
	switch {
	case !n.Native:
		return solver.Uniconn, mode
	case n.Backend == "GPUCCL":
		return solver.NativeGPUCCL, mode
	case n.Backend == "GPUSHMEM" && mode == core.PureDevice:
		return solver.NativeGPUSHMEMDevice, mode
	case n.Backend == "GPUSHMEM":
		return solver.NativeGPUSHMEMHost, mode
	default:
		return solver.NativeMPI, mode
	}
}

// AllreduceAlg parses the allreduce algorithm name.
func (s Spec) AllreduceAlg() (mpi.AllreduceAlg, error) { return parseAlg(s.Normalize().Alg) }

// parseAlg is AllreduceAlg of a normalized spec's algorithm name.
func parseAlg(name string) (mpi.AllreduceAlg, error) {
	switch name {
	case "auto":
		return mpi.AlgAuto, nil
	case "rd":
		return mpi.AlgRecursiveDoubling, nil
	case "ring":
		return mpi.AlgRing, nil
	case "hierarchical":
		return mpi.AlgHierarchical, nil
	default:
		return 0, fmt.Errorf("spec: unknown allreduce alg %q (auto|rd|ring|hierarchical)", name)
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

// String renders a short human label for progress displays, logs and a
// failing cell's error: it names the backend, the API and native or UNICONN,
// so two columns of one backend never share a label.
func (s Spec) String() string {
	n := s.Normalize()
	impl := "UNICONN"
	if n.Native {
		impl = "Native"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/%s-%s:%s", n.Workload, n.Machine, n.Backend, n.API, impl)
	if n.Workload == WorkloadAllreduce || app(n.Workload) {
		fmt.Fprintf(&b, "/r%d", n.Ranks)
	}
	switch n.Workload {
	case WorkloadJacobi:
		fmt.Fprintf(&b, "/%dx%d", n.NX, n.NY)
	case WorkloadCG:
		fmt.Fprintf(&b, "/%s", n.Matrix)
	default:
		fmt.Fprintf(&b, "/%dB", n.Bytes)
	}
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
