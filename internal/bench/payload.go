package bench

import (
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/gpushmem"
)

// payload allocates a cell's message vectors — the float64 buffers a net or
// scale cell sends and receives — through whichever door its variant uses:
// plain device memory (native MPI and GPUCCL), the symmetric heap (native
// GPUSHMEM) or the UNICONN Memory construct. A timing cell's answer is a
// virtual time derived from lengths, so unless the cell is functional its
// vectors are phantom (gpu.AllocPhantom): nothing is made, zeroed or copied.
// Signal words are read by waits and never come from here.
type payload struct{ functional bool }

func (a payload) device(env *core.Env, n int) *gpu.Buffer[float64] {
	if a.functional {
		return gpu.AllocBuffer[float64](env.Device(), n)
	}
	return gpu.AllocPhantom[float64](env.Device(), n)
}

func (a payload) symmetric(pe *gpushmem.PE, n int) *gpushmem.Sym[float64] {
	if a.functional {
		return gpushmem.Malloc[float64](pe, n)
	}
	return gpushmem.MallocPhantom[float64](pe, n)
}

func (a payload) uniconn(env *core.Env, n int) *core.Mem[float64] {
	if a.functional {
		return core.Alloc[float64](env, n)
	}
	return core.AllocPhantom[float64](env, n)
}
