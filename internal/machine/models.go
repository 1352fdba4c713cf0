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
			MemEff:       0.78,
			Flops:        19.5e12,
			KernelLaunch: sim.Micros(5.5),
			LocalCopyBW:  1300e9,
		},
		HostOp:      sim.Nanos(180),
		HasGPUSHMEM: true,
		Uniconn:     defaultUniconnCosts(),
		profiles: [numLibs][numAPIs]*LibProfile{
			LibMPI: {APIHost: {
				Intra:              Curve{Alpha: sim.Micros(2.4), EffPeak: 0.68, HalfSize: 96 << 10},
				Inter:              Curve{Alpha: sim.Micros(3.3), EffPeak: 0.90, HalfSize: 48 << 10},
				CallOverhead:       sim.Nanos(380),
				EagerMax:           8 << 10,
				RendezvousOverhead: sim.Micros(2.8),
				CollStagingBW:      12e9,
			}},
			LibGPUCCL: {APIHost: {
				Intra:          Curve{Alpha: sim.Micros(1.4), EffPeak: 0.93, HalfSize: 192 << 10},
				Inter:          Curve{Alpha: sim.Micros(4.2), EffPeak: 0.95, HalfSize: 96 << 10},
				CallOverhead:   sim.Nanos(300),
				LaunchOverhead: sim.Micros(8.7),
			}},
			LibGPUSHMEM: {APIHost: {
				Intra:          Curve{Alpha: sim.Micros(2.0), EffPeak: 0.84, HalfSize: 128 << 10},
				Inter:          Curve{Alpha: sim.Micros(3.0), EffPeak: 0.92, HalfSize: 64 << 10},
				CallOverhead:   sim.Nanos(320),
				LaunchOverhead: sim.Micros(6.0),
			}, APIDevice: {
				Intra:        Curve{Alpha: sim.Micros(1.1), EffPeak: 0.76, HalfSize: 128 << 10},
				Inter:        Curve{Alpha: sim.Micros(2.4), EffPeak: 0.88, HalfSize: 64 << 10},
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
			MemEff:       0.72,
			Flops:        23.9e12,
			KernelLaunch: sim.Micros(6.5),
			LocalCopyBW:  1200e9,
		},
		HostOp:      sim.Nanos(200),
		HasGPUSHMEM: false,
		Uniconn:     defaultUniconnCosts(),
		profiles: [numLibs][numAPIs]*LibProfile{
			LibMPI: {APIHost: {
				Intra:              Curve{Alpha: sim.Micros(2.9), EffPeak: 0.62, HalfSize: 128 << 10},
				Inter:              Curve{Alpha: sim.Micros(3.6), EffPeak: 0.88, HalfSize: 64 << 10},
				CallOverhead:       sim.Nanos(420),
				EagerMax:           8 << 10,
				RendezvousOverhead: sim.Micros(3.4),
				CollStagingBW:      10e9,
			}},
			LibGPUCCL: {APIHost: { // RCCL: weak small, strong large (paper §VII)
				Intra:          Curve{Alpha: sim.Micros(2.3), EffPeak: 0.91, HalfSize: 256 << 10},
				Inter:          Curve{Alpha: sim.Micros(6.5), EffPeak: 0.93, HalfSize: 128 << 10},
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
			MemEff:       0.80,
			Flops:        66.9e12,
			KernelLaunch: sim.Micros(5.0),
			LocalCopyBW:  2800e9,
		},
		HostOp:      sim.Nanos(170),
		HasGPUSHMEM: true,
		Uniconn:     defaultUniconnCosts(),
		profiles: [numLibs][numAPIs]*LibProfile{
			LibMPI: {APIHost: { // OpenMPI/UCX: good latency, weaker large intra
				Intra:              Curve{Alpha: sim.Micros(2.1), EffPeak: 0.60, HalfSize: 128 << 10},
				Inter:              Curve{Alpha: sim.Micros(2.9), EffPeak: 0.91, HalfSize: 48 << 10},
				CallOverhead:       sim.Nanos(350),
				EagerMax:           8 << 10,
				RendezvousOverhead: sim.Micros(2.5),
				CollStagingBW:      13e9,
			}},
			LibGPUCCL: {APIHost: {
				Intra:          Curve{Alpha: sim.Micros(1.3), EffPeak: 0.94, HalfSize: 256 << 10},
				Inter:          Curve{Alpha: sim.Micros(4.0), EffPeak: 0.95, HalfSize: 96 << 10},
				CallOverhead:   sim.Nanos(290),
				LaunchOverhead: sim.Micros(8.0),
			}},
			LibGPUSHMEM: {APIHost: {
				Intra:          Curve{Alpha: sim.Micros(1.8), EffPeak: 0.82, HalfSize: 192 << 10},
				Inter:          Curve{Alpha: sim.Micros(2.7), EffPeak: 0.93, HalfSize: 64 << 10},
				CallOverhead:   sim.Nanos(310),
				LaunchOverhead: sim.Micros(5.5),
			}, APIDevice: {
				Intra:        Curve{Alpha: sim.Micros(1.0), EffPeak: 0.74, HalfSize: 192 << 10},
				Inter:        Curve{Alpha: sim.Micros(2.2), EffPeak: 0.90, HalfSize: 64 << 10},
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

// ByName looks a machine up case-sensitively; it returns nil if unknown.
func ByName(name string) *Model {
	for _, m := range All() {
		if m.Name == name {
			return m
		}
	}
	return nil
}
