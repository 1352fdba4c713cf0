package bench

// The one backend/variant table. Every tool that compares communication
// libraries — the net, Jacobi, CG and chaos subcommands, Figs. 2-6, and the
// advisor's calibration — iterates these rows, so a new backend, API flavour
// or launch mode is one row here instead of an edit per tool.

import (
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/solver/cg"
	"repro/internal/solver/jacobi"
	"repro/internal/spec"
)

// Lib is one comparable communication configuration: a backend under one
// API flavour (the microbenchmarks' axis) and the matching launch mode (the
// application kernels' axis).
type Lib struct {
	Backend core.BackendID
	API     machine.API
	mode    core.LaunchMode
	// The three spellings the outputs of record use for the row: CLI tables
	// abbreviate (SHMEM-D), the application figures keep the library name
	// (GPUSHMEM-D), the network figures spell the API out (GPUSHMEM-Device).
	CLI, app, net string

	// The native implementations the row's UNICONN column is compared with.
	jacobi jacobi.Variant
	cg     cg.Variant
}

var libTable = []Lib{
	{core.MPIBackend, machine.APIHost, core.PureHost, "MPI", "MPI", "MPI", jacobi.NativeMPI, cg.NativeMPI},
	{core.GpucclBackend, machine.APIHost, core.PureHost, "GPUCCL", "GPUCCL", "GPUCCL", jacobi.NativeGPUCCL, cg.NativeGPUCCL},
	{core.GpushmemBackend, machine.APIHost, core.PureHost, "SHMEM-H", "GPUSHMEM-H", "GPUSHMEM-Host", jacobi.NativeGPUSHMEMHost, cg.NativeGPUSHMEMHost},
	{core.GpushmemBackend, machine.APIHost, core.PartialDevice, "SHMEM-P", "", "", jacobi.Uniconn, cg.Uniconn},
	{core.GpushmemBackend, machine.APIDevice, core.PureDevice, "SHMEM-D", "GPUSHMEM-D", "GPUSHMEM-Device", jacobi.NativeGPUSHMEMDevice, cg.NativeGPUSHMEMDevice},
}

// Libs returns the rows available on the machine, in the paper's plotting
// order: GPUSHMEM rows only where the machine has it (LUMI does not), and
// UNICONN's partial-device launch mode — which has no native counterpart and
// which only the Jacobi kernel implements — only on request.
func Libs(m *machine.Model, partialDevice bool) []Lib {
	var out []Lib
	for _, l := range libTable {
		if l.Backend == core.GpushmemBackend && !m.HasGPUSHMEM {
			continue
		}
		if l.mode == core.PartialDevice && !partialDevice {
			continue
		}
		out = append(out, l)
	}
	return out
}

// Variant is one column of a native-vs-UNICONN comparison: a library row in
// one of its two implementations.
type Variant struct {
	Lib
	Native bool
}

// Variants expands rows into comparison columns, native before UNICONN; the
// partial-device row contributes its UNICONN column only.
func Variants(libs []Lib) []Variant {
	var out []Variant
	for _, l := range libs {
		if l.mode != core.PartialDevice {
			out = append(out, Variant{l, true})
		}
		out = append(out, Variant{l, false})
	}
	return out
}

// Impl names the column's implementation, the suffix of its label.
func (v Variant) Impl() string {
	if v.Native {
		return ":Native"
	}
	return ":Uniconn"
}

// Spec returns base configured to run this column's microbenchmark.
func (v Variant) Spec(base spec.Spec) spec.Spec {
	base.Backend, base.API, base.Native = v.Backend.String(), v.API.String(), v.Native
	return base
}

// jacobiConfig returns base configured to run this column's Jacobi
// implementation.
func (v Variant) jacobiConfig(base jacobi.Config) jacobi.Config {
	base.Variant = v.jacobi
	if !v.Native {
		base.Variant, base.Backend, base.Mode = jacobi.Uniconn, v.Backend, v.mode
	}
	return base
}

// CGConfig returns base configured to run this column's CG implementation.
func (v Variant) CGConfig(base cg.Config) cg.Config {
	base.Variant = v.cg
	if !v.Native {
		base.Variant, base.Backend, base.Mode = cg.Uniconn, v.Backend, v.mode
	}
	return base
}
