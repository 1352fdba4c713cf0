// Package machine encodes the hardware and software characteristics of the
// three supercomputers used in the UNICONN paper (Table I): Perlmutter,
// LUMI-G, and MareNostrum5 ACC.
//
// A Model combines the cluster shape (GPUs per node, NIC count), the raw
// wire capabilities of the interconnects, per-communication-library cost
// profiles (latency and effective-bandwidth curves for GPU-aware MPI,
// GPUCCL, and GPUSHMEM on each path and API flavour), GPU compute
// parameters, and host-side software costs. The profile values are synthetic
// but calibrated to the public specifications in Table I and to published
// OSU-style measurements of these systems, so that the qualitative results
// of the paper (who wins at which message size, on which path, on which
// machine) are preserved.
package machine

import (
	"fmt"
	"math"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Lib identifies a communication library (backend).
type Lib int

const (
	// LibMPI is GPU-aware MPI (Cray MPICH / OpenMPI in the paper).
	LibMPI Lib = iota
	// LibGPUCCL is the vendor collective library (NCCL / RCCL).
	LibGPUCCL
	// LibGPUSHMEM is the GPU OpenSHMEM library (NVSHMEM).
	LibGPUSHMEM
	numLibs
)

func (l Lib) String() string {
	switch l {
	case LibMPI:
		return "MPI"
	case LibGPUCCL:
		return "GPUCCL"
	case LibGPUSHMEM:
		return "GPUSHMEM"
	default:
		return fmt.Sprintf("Lib(%d)", int(l))
	}
}

// API distinguishes host-initiated from device-initiated communication.
type API int

const (
	// APIHost is host-initiated (CPU calls the library).
	APIHost API = iota
	// APIDevice is device-initiated (GPU threads call the library).
	APIDevice
	numAPIs
)

func (a API) String() string {
	if a == APIDevice {
		return "Device"
	}
	return "Host"
}

// curve is a latency/effective-bandwidth model for one (library, API, path)
// combination: a message of size s bytes sees one-way latency alpha and
// streams at WireBW * effPeak * s / (s + halfSize).
type curve struct {
	alpha    sim.Duration // per-message one-way latency
	effPeak  float64      // fraction of the wire peak achievable at s→∞
	halfSize float64      // bytes at which half of the effective peak is reached
}

// LibProfile is the full cost profile of one library+API on one machine.
type LibProfile struct {
	intra curve
	inter curve

	// CallOverhead is the host CPU time consumed by each library call
	// (argument marshalling, handle lookups).
	CallOverhead sim.Duration
	// LaunchOverhead is the cost of placing a communication kernel on a
	// stream (GPUCCL pays it per group; GPUSHMEM host-API per op batch).
	LaunchOverhead sim.Duration
	// EagerMax is the MPI eager-protocol threshold in bytes; messages
	// larger than this pay RendezvousOverhead for the RTS/CTS handshake.
	EagerMax int64
	// RendezvousOverhead is the extra latency of the rendezvous
	// handshake (one extra control-message round trip).
	RendezvousOverhead sim.Duration
	// CollStagingBW models a pathology of vector collectives
	// (Allgatherv & friends) on device buffers: the implementation stages
	// the full vector through host bounce buffers at this bandwidth
	// (bytes/s; 0 disables). This is the effect the paper isolates in
	// §VI-D, where MPI's Allgatherv dominated the CG runtime.
	CollStagingBW float64
}

// GPUSpec captures the compute-side parameters of one GPU (or GCD).
type GPUSpec struct {
	Name string
	// MemBW is the peak device-memory bandwidth in bytes/s; memEff is the
	// fraction achievable by stencil-like kernels.
	MemBW  float64
	memEff float64
	// KernelLaunch is the host-side latency of launching one kernel.
	KernelLaunch sim.Duration
	// localCopyBW is device-local (intra-GPU) copy bandwidth.
	localCopyBW float64
}

// UniconnCosts models the host-side overhead that the UNICONN layer adds on
// top of a backend (the source of the paper's native-vs-UNICONN deltas).
type UniconnCosts struct {
	// Dispatch is the per-operation cost of UNICONN's decision logic
	// (blocking vs non-blocking selection, launch-mode branching).
	Dispatch sim.Duration
	// StreamQuery is the cost of querying the GPU stream for pending
	// operations before each blocking MPI call (paper §VI-B).
	StreamQuery sim.Duration
	// SmallAckPenalty is the additional interference cost paid by
	// blocking small-message Acknowledge operations on the MPI backend,
	// where stream queries disturb communication progress.
	SmallAckPenalty sim.Duration
	// SmallAckMax is the message size (bytes) below which the penalty
	// applies.
	SmallAckMax int64
	// DeviceInline is the (near-zero) cost of the inlined device-side
	// wrappers.
	DeviceInline sim.Duration
}

// Model is the complete description of one machine.
type Model struct {
	Name        string
	GPUsPerNode int
	NICsPerNode int

	// Wire peaks, bytes/s per port per direction.
	IntraWireBW float64
	NICWireBW   float64

	GPU     GPUSpec
	HostOp  sim.Duration // generic host-side bookkeeping operation
	Uniconn UniconnCosts

	// Topology selects the inter-node network model of clusters built on
	// this machine (flat, fat-tree, dragonfly; see fabric.TopologyConfig).
	// The zero value keeps the paper's flat single-hop network. CLIs and
	// core.Config.Topology override it on a cloned model.
	Topology fabric.TopologyConfig

	// HasGPUSHMEM reports whether a GPUSHMEM implementation exists on
	// this machine (rocSHMEM was not mature: LUMI has none — Table I).
	HasGPUSHMEM bool

	// profiles is the cost table, indexed [lib][api]; nil marks a
	// combination the machine does not provide. The profiles are immutable
	// once built, so a copied Model (a topology or inter-node clone) shares
	// them, and concurrent sweep cells read one Model without a lock.
	profiles [numLibs][numAPIs]*LibProfile
}

// profile returns the table entry for a library+API, panicking with the
// machine's name when the machine does not provide it.
func (m *Model) profile(lib Lib, api API) *LibProfile {
	if !m.Supports(lib, api) {
		panic(fmt.Sprintf("machine %s: no profile for %v/%v", m.Name, lib, api))
	}
	return m.profiles[lib][api]
}

// Profile returns the cost profile for a library+API on this machine. It
// panics for combinations the machine does not support (use Supports to
// check).
func (m *Model) Profile(lib Lib, api API) LibProfile {
	return *m.profile(lib, api)
}

// Supports reports whether the machine provides the library+API combination.
func (m *Model) Supports(lib Lib, api API) bool {
	return uint(lib) < uint(numLibs) && uint(api) < uint(numAPIs) && m.profiles[lib][api] != nil
}

// Cost resolves the fabric.LinkCost for one message: a table read and the
// saturation curve, cheap enough that nothing memoizes it.
func (m *Model) Cost(lib Lib, api API, path fabric.Path, bytes int64) fabric.LinkCost {
	p := m.profile(lib, api)
	var c curve
	switch path {
	case fabric.PathInter:
		c = p.inter
	case fabric.PathIntra:
		c = p.intra
	default: // device-local copy
		return fabric.LinkCost{
			Latency:     sim.Microsecond / 2,
			BytesPerSec: m.GPU.localCopyBW,
		}
	}
	wire := m.IntraWireBW
	if path == fabric.PathInter {
		wire = m.NICWireBW
	}
	s := float64(bytes)
	eff := c.effPeak * s / (s + c.halfSize)
	if eff <= 0 || math.IsNaN(eff) {
		eff = 1e-9
	}
	return fabric.LinkCost{Latency: c.alpha, BytesPerSec: wire * eff}
}

// FabricConfig returns the fabric configuration for a cluster of the given
// node count on this machine. A model that leaves NICsPerNode unset gets
// one port per node (fabric.New rejects non-positive counts outright).
func (m *Model) FabricConfig(nodes int) fabric.Config {
	nics := m.NICsPerNode
	if nics < 1 {
		nics = 1
	}
	return fabric.Config{
		Nodes:       nodes,
		GPUsPerNode: m.GPUsPerNode,
		NICsPerNode: nics,
		Topology:    m.Topology,
	}
}

// NodesFor returns how many nodes are needed for n GPUs (GPUs are packed).
func (m *Model) NodesFor(nGPUs int) int {
	return nodesFor(m.GPUsPerNode, nGPUs)
}

func nodesFor(gpusPerNode, nGPUs int) int {
	return (nGPUs + gpusPerNode - 1) / gpusPerNode
}

// StencilKernelTime models a memory-bound stencil update touching the given
// number of bytes.
func (m *Model) StencilKernelTime(bytes int64) sim.Duration {
	bw := m.GPU.MemBW * m.GPU.memEff
	return sim.Duration(float64(bytes) / bw * float64(sim.Second))
}

// SpMVKernelTime models a CSR sparse matrix-vector product with the given
// nonzero count: each nonzero streams the value (8 B), the column index
// (4 B), and an x-vector gather (8 B, partially cached).
func (m *Model) SpMVKernelTime(nnz int64) sim.Duration {
	const bytesPerNnz = 16.0
	bw := m.GPU.MemBW * m.GPU.memEff * 0.6 // irregular access penalty
	return sim.Duration(float64(nnz) * bytesPerNnz / bw * float64(sim.Second))
}
