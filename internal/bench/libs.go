package bench

// The one backend/variant table. Every tool that compares communication
// libraries — the net, Jacobi, CG and chaos subcommands, Figs. 2-6, and the
// advisor's calibration — iterates these rows, so a new backend, API flavour
// or launch mode is one row here instead of an edit per tool.

import (
	"repro/internal/core"
	"repro/internal/machine"
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
}

var libTable = []Lib{
	{core.MPIBackend, machine.APIHost, core.PureHost, "MPI", "MPI", "MPI"},
	{core.GpucclBackend, machine.APIHost, core.PureHost, "GPUCCL", "GPUCCL", "GPUCCL"},
	{core.GpushmemBackend, machine.APIHost, core.PureHost, "SHMEM-H", "GPUSHMEM-H", "GPUSHMEM-Host"},
	{core.GpushmemBackend, machine.APIHost, core.PartialDevice, "SHMEM-P", "", ""},
	{core.GpushmemBackend, machine.APIDevice, core.PureDevice, "SHMEM-D", "GPUSHMEM-D", "GPUSHMEM-Device"},
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

// Spec returns base configured to run this column: its backend, API and
// implementation, the partial-device launch as spec.APIPartial.
func (v Variant) Spec(base spec.Spec) spec.Spec {
	base.Backend, base.API, base.Native = v.Backend.String(), v.API.String(), v.Native
	if v.mode == core.PartialDevice {
		base.API = spec.APIPartial
	}
	return base
}

// Cells lays out one cell of base per (rank count, column), count-major: the
// row-major order of the tables printed from the results.
func Cells(base spec.Spec, ranks []int, cols []Variant) []spec.Spec {
	cells := make([]spec.Spec, 0, len(ranks)*len(cols))
	for _, n := range ranks {
		base.Ranks = n
		for _, v := range cols {
			cells = append(cells, v.Spec(base))
		}
	}
	return cells
}
