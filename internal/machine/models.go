package machine

import "repro/internal/sim"

// The three systems of Table I. Profile numbers are calibrated so that the
// paper's qualitative findings hold on the simulated fabric:
//
//   - GPU-aware MPI has the best host-initiated small-message latency but a
//     visible eager→rendezvous knee and mediocre large-message efficiency
//     intra-node.
//   - GPUCCL pays a fixed kernel-launch cost per (group of) operations, so
//     it loses badly at small messages but achieves the highest fraction of
//     wire bandwidth at large messages.
//   - GPUSHMEM's host API sits between the two; its device API removes the
//     launch/stack overhead entirely and has the lowest latency of all,
//     at a modest bandwidth discount (GPU threads drive the transfer).
//   - RCCL on LUMI is comparatively weak for small messages and strong for
//     large ones; LUMI has no GPUSHMEM (rocSHMEM immature, Table I).

// Perlmutter models a NERSC Perlmutter GPU node group: 4× NVIDIA A100
// (40 GB) per node, NVLink 3.0 intra-node, 4× Slingshot-11 200 Gb/s NICs,
// Cray MPICH, NCCL, NVSHMEM.
func Perlmutter() *Model {
	m := &Model{
		Name:        "Perlmutter",
		GPUsPerNode: 4,
		NICsPerNode: 4,
		IntraWireBW: 85e9, // achievable pairwise NVLink 3.0 stream
		NICWireBW:   25e9, // 200 Gb/s Slingshot 11
		GPU: GPUSpec{
			Name:         "A100-40GB",
			MemBW:        1555e9,
			memEff:       0.78,
			KernelLaunch: sim.Micros(5.5),
			localCopyBW:  1300e9,
		},
		HostOp:      sim.Nanos(180),
		HasGPUSHMEM: true,
		Uniconn:     defaultUniconnCosts(),
		profiles: [numLibs][numAPIs]*LibProfile{
			LibMPI: {APIHost: {
				intra:              curve{alpha: sim.Micros(2.4), effPeak: 0.68, halfSize: 96 << 10},
				inter:              curve{alpha: sim.Micros(3.3), effPeak: 0.90, halfSize: 48 << 10},
				CallOverhead:       sim.Nanos(380),
				EagerMax:           8 << 10,
				RendezvousOverhead: sim.Micros(2.8),
				CollStagingBW:      12e9,
			}},
			LibGPUCCL: {APIHost: {
				intra:          curve{alpha: sim.Micros(1.4), effPeak: 0.93, halfSize: 192 << 10},
				inter:          curve{alpha: sim.Micros(4.2), effPeak: 0.95, halfSize: 96 << 10},
				CallOverhead:   sim.Nanos(300),
				LaunchOverhead: sim.Micros(8.7),
			}},
			LibGPUSHMEM: {APIHost: {
				intra:          curve{alpha: sim.Micros(2.0), effPeak: 0.84, halfSize: 128 << 10},
				inter:          curve{alpha: sim.Micros(3.0), effPeak: 0.92, halfSize: 64 << 10},
				CallOverhead:   sim.Nanos(320),
				LaunchOverhead: sim.Micros(6.0),
			}, APIDevice: {
				intra:        curve{alpha: sim.Micros(1.1), effPeak: 0.76, halfSize: 128 << 10},
				inter:        curve{alpha: sim.Micros(2.4), effPeak: 0.88, halfSize: 64 << 10},
				CallOverhead: sim.Nanos(40), // device-side instruction cost
			}},
		},
	}
	return m
}

// LUMI models a LUMI-G node: 4× AMD MI250X, each exposing two Graphics
// Compute Dies that the ROCm stack treats as separate GPUs (8 logical GPUs
// per node, paper §VI-C), Infinity Fabric intra-node, 4× Slingshot-11 NICs
// (two GCDs share a NIC), Cray MPICH and RCCL; no GPUSHMEM.
func LUMI() *Model {
	m := &Model{
		Name:        "LUMI",
		GPUsPerNode: 8, // GCDs
		NICsPerNode: 4,
		IntraWireBW: 45e9, // single Infinity Fabric link pair between GCDs
		NICWireBW:   25e9,
		GPU: GPUSpec{
			Name:         "MI250X-GCD",
			MemBW:        1600e9,
			memEff:       0.72,
			KernelLaunch: sim.Micros(6.5),
			localCopyBW:  1200e9,
		},
		HostOp:      sim.Nanos(200),
		HasGPUSHMEM: false,
		Uniconn:     defaultUniconnCosts(),
		profiles: [numLibs][numAPIs]*LibProfile{
			LibMPI: {APIHost: {
				intra:              curve{alpha: sim.Micros(2.9), effPeak: 0.62, halfSize: 128 << 10},
				inter:              curve{alpha: sim.Micros(3.6), effPeak: 0.88, halfSize: 64 << 10},
				CallOverhead:       sim.Nanos(420),
				EagerMax:           8 << 10,
				RendezvousOverhead: sim.Micros(3.4),
				CollStagingBW:      10e9,
			}},
			LibGPUCCL: {APIHost: { // RCCL: weak small, strong large (paper §VII)
				intra:          curve{alpha: sim.Micros(2.3), effPeak: 0.91, halfSize: 256 << 10},
				inter:          curve{alpha: sim.Micros(6.5), effPeak: 0.93, halfSize: 128 << 10},
				CallOverhead:   sim.Nanos(340),
				LaunchOverhead: sim.Micros(11.0),
			}},
		},
	}
	return m
}

// MareNostrum5 models a MareNostrum5 ACC node: 4× NVIDIA H100 (64 GB),
// NVLink 4.0 intra-node, 4× NDR InfiniBand 200 Gb/s NICs, OpenMPI, NCCL,
// NVSHMEM.
func MareNostrum5() *Model {
	m := &Model{
		Name:        "MareNostrum5",
		GPUsPerNode: 4,
		NICsPerNode: 4,
		IntraWireBW: 130e9, // NVLink 4.0 pairwise
		NICWireBW:   25e9,  // 200 Gb/s NDR
		GPU: GPUSpec{
			Name:         "H100-64GB",
			MemBW:        3350e9,
			memEff:       0.80,
			KernelLaunch: sim.Micros(5.0),
			localCopyBW:  2800e9,
		},
		HostOp:      sim.Nanos(170),
		HasGPUSHMEM: true,
		Uniconn:     defaultUniconnCosts(),
		profiles: [numLibs][numAPIs]*LibProfile{
			LibMPI: {APIHost: { // OpenMPI/UCX: good latency, weaker large intra
				intra:              curve{alpha: sim.Micros(2.1), effPeak: 0.60, halfSize: 128 << 10},
				inter:              curve{alpha: sim.Micros(2.9), effPeak: 0.91, halfSize: 48 << 10},
				CallOverhead:       sim.Nanos(350),
				EagerMax:           8 << 10,
				RendezvousOverhead: sim.Micros(2.5),
				CollStagingBW:      13e9,
			}},
			LibGPUCCL: {APIHost: {
				intra:          curve{alpha: sim.Micros(1.3), effPeak: 0.94, halfSize: 256 << 10},
				inter:          curve{alpha: sim.Micros(4.0), effPeak: 0.95, halfSize: 96 << 10},
				CallOverhead:   sim.Nanos(290),
				LaunchOverhead: sim.Micros(8.0),
			}},
			LibGPUSHMEM: {APIHost: {
				intra:          curve{alpha: sim.Micros(1.8), effPeak: 0.82, halfSize: 192 << 10},
				inter:          curve{alpha: sim.Micros(2.7), effPeak: 0.93, halfSize: 64 << 10},
				CallOverhead:   sim.Nanos(310),
				LaunchOverhead: sim.Micros(5.5),
			}, APIDevice: {
				intra:        curve{alpha: sim.Micros(1.0), effPeak: 0.74, halfSize: 192 << 10},
				inter:        curve{alpha: sim.Micros(2.2), effPeak: 0.90, halfSize: 64 << 10},
				CallOverhead: sim.Nanos(40),
			}},
		},
	}
	return m
}

func defaultUniconnCosts() UniconnCosts {
	return UniconnCosts{
		Dispatch:        sim.Nanos(70),
		StreamQuery:     sim.Nanos(260),
		SmallAckPenalty: sim.Nanos(110),
		SmallAckMax:     8 << 10,
		DeviceInline:    sim.Nanos(1),
	}
}

// All returns the three paper machines, in Table I order.
func All() []*Model {
	return []*Model{Perlmutter(), LUMI(), MareNostrum5()}
}

// catalog maps each machine's name to its constructor, whether it has
// GPUSHMEM and its GPUs per node, so checking a name builds no model
// (TestCatalogMatchesModels).
var catalog = map[string]struct {
	build func() *Model
	shmem bool
	gpus  int
}{"Perlmutter": {Perlmutter, true, 4}, "LUMI": {LUMI, false, 8}, "MareNostrum5": {MareNostrum5, true, 4}}

// ByName builds the named machine (case-sensitive); it returns nil if unknown.
func ByName(name string) *Model {
	if c, ok := catalog[name]; ok {
		return c.build()
	}
	return nil
}

// Lookup reports, without building a model, whether ByName knows name and
// whether that machine has GPUSHMEM.
func Lookup(name string) (known, hasGPUSHMEM bool) {
	c, ok := catalog[name]
	return ok, c.shmem
}

// NodesFor is Model.NodesFor of the named machine, answered from the
// catalog without building a model; 0 for an unknown name.
func NodesFor(name string, nGPUs int) int {
	c, ok := catalog[name]
	if !ok {
		return 0
	}
	return nodesFor(c.gpus, nGPUs)
}
