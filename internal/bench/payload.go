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
// vectors are phantom (gpu.Phantom): nothing is made, zeroed or copied. A
// functional cell's vectors are gpu.Uninit: drawn unzeroed from the
// launch's arena, as cudaMalloc's are, and handed back when the launch
// ends, so the cell writes each before reading it and reads none after its
// launch returns. Signal words are read by waits and never come from here.
type payload struct{ functional bool }

// storage is how the cell's vectors are backed.
func (a payload) storage() gpu.Storage {
	if a.functional {
		return gpu.Uninit
	}
	return gpu.Phantom
}

func (a payload) device(env *core.Env, n int) *gpu.Buffer[float64] {
	return gpu.Alloc[float64](env.Device(), n, a.storage())
}

func (a payload) symmetric(pe *gpushmem.PE, n int) *gpushmem.Sym[float64] {
	return gpushmem.MallocAs[float64](pe, n, a.storage())
}

func (a payload) uniconn(env *core.Env, n int) *core.Mem[float64] {
	return core.AllocAs[float64](env, n, a.storage())
}
