// Package sparse provides the CSR sparse-matrix substrate for the
// Conjugate Gradient experiment: matrix storage, SpMV, symmetric
// positive-definite generators standing in for the SuiteSparse matrices the
// paper uses (Serena, Queen_4147), row partitioning, and communication
// footprint analysis.
package sparse

import (
	"fmt"
	"math/rand"
)

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, cols int
	rowPtr     []int64
	colIdx     []int32
	vals       []float64
}

// NNZ reports the number of stored entries.
func (m *CSR) NNZ() int64 { return int64(len(m.colIdx)) }

// NNZRange reports the stored entries in rows [lo, hi).
func (m *CSR) NNZRange(lo, hi int) int64 { return m.rowPtr[hi] - m.rowPtr[lo] }

// SpMV computes y = A x for the rows [lo, hi) (y indexed from lo).
func (m *CSR) SpMV(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		sum := 0.0
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			sum += m.vals[k] * x[m.colIdx[k]]
		}
		y[i-lo] = sum
	}
}

// builder accumulates rows in order.
type builder struct {
	m *CSR
}

func newBuilder(rows, cols int, nnzHint int64) *builder {
	return &builder{m: &CSR{
		Rows:   rows,
		cols:   cols,
		rowPtr: append(make([]int64, 0, rows+1), 0),
		colIdx: make([]int32, 0, nnzHint),
		vals:   make([]float64, 0, nnzHint),
	}}
}

func (b *builder) add(col int, v float64) {
	b.m.colIdx = append(b.m.colIdx, int32(col))
	b.m.vals = append(b.m.vals, v)
}

func (b *builder) endRow() {
	b.m.rowPtr = append(b.m.rowPtr, int64(len(b.m.colIdx)))
}

// Laplace3D builds the 7-point finite-difference Laplacian on an
// nx×ny×nz grid: the canonical sparse SPD test matrix.
func Laplace3D(nx, ny, nz int) *CSR {
	n := nx * ny * nz
	b := newBuilder(n, n, int64(n)*7)
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				// Ascending column order within the row.
				if z > 0 {
					b.add(idx(x, y, z-1), -1)
				}
				if y > 0 {
					b.add(idx(x, y-1, z), -1)
				}
				if x > 0 {
					b.add(idx(x-1, y, z), -1)
				}
				b.add(idx(x, y, z), 6.5) // slightly dominant: SPD
				if x < nx-1 {
					b.add(idx(x+1, y, z), -1)
				}
				if y < ny-1 {
					b.add(idx(x, y+1, z), -1)
				}
				if z < nz-1 {
					b.add(idx(x, y, z+1), -1)
				}
				b.endRow()
			}
		}
	}
	return b.m
}

// SyntheticSPDSpec parameterizes a banded-plus-scattered SPD matrix with a
// target size and density, the structural fingerprint the CG experiment
// depends on (rows, nnz/row, bandwidth profile).
type SyntheticSPDSpec struct {
	Name string
	// fullRows is the row count at scale 1.0.
	fullRows int
	// nnzPerRow is the average stored entries per row (diagonal included).
	nnzPerRow int
	// bandFraction of the off-diagonal entries fall within the near band;
	// the rest scatter widely (driving the allgather footprint).
	bandFraction float64
	// Bandwidth of the near band as a fraction of the row count.
	bandWidth float64
	seed      int64
}

// Serena mimics SuiteSparse Serena: 1,391,349 rows, ~46 nnz/row
// (64,531,701 nnz), a structural-mechanics matrix with a strong band.
func Serena() SyntheticSPDSpec {
	return SyntheticSPDSpec{
		Name: "Serena-like", fullRows: 1391349, nnzPerRow: 46,
		bandFraction: 0.85, bandWidth: 0.002, seed: 101,
	}
}

// Queen4147 mimics SuiteSparse Queen_4147: 4,147,110 rows, ~80 nnz/row
// (329,499,284 nnz), 3D structural problem.
func Queen4147() SyntheticSPDSpec {
	return SyntheticSPDSpec{
		Name: "Queen_4147-like", fullRows: 4147110, nnzPerRow: 80,
		bandFraction: 0.88, bandWidth: 0.0012, seed: 202,
	}
}

// rows returns the row count at a given scale in (0, 1].
func (s SyntheticSPDSpec) rows(scale float64) int {
	r := int(float64(s.fullRows) * scale)
	if r < 8 {
		r = 8
	}
	return r
}

// Generate materializes the matrix at the given scale: a diagonally
// dominant symmetric pattern with s.nnzPerRow entries per row.
func (s SyntheticSPDSpec) Generate(scale float64) *CSR {
	n := s.rows(scale)
	rng := rand.New(rand.NewSource(s.seed))
	band := int(float64(n) * s.bandWidth)
	if band < 2 {
		band = 2
	}
	perRowOff := s.nnzPerRow - 1
	if perRowOff < 2 {
		perRowOff = 2
	}
	// Generate symmetric structure: pick lower-triangle partners for each
	// row, mirror them. To keep generation O(nnz) we emit strictly
	// banded+scattered lower entries and mirror into an adjacency list.
	lower := make([][]int32, n)
	halves := perRowOff / 2
	for i := 0; i < n; i++ {
		for k := 0; k < halves; k++ {
			var j int
			if rng.Float64() < s.bandFraction {
				j = i - 1 - rng.Intn(band)
			} else {
				j = rng.Intn(i + 1)
			}
			if j < 0 || j >= i {
				continue
			}
			lower[i] = append(lower[i], int32(j))
		}
	}
	upper := make([][]int32, n)
	for i := 0; i < n; i++ {
		for _, j := range lower[i] {
			upper[j] = append(upper[j], int32(i))
		}
	}
	b := newBuilder(n, n, int64(n)*int64(perRowOff+1))
	offVal := -1.0
	for i := 0; i < n; i++ {
		deg := len(lower[i]) + len(upper[i])
		for _, j := range lower[i] {
			b.add(int(j), offVal)
		}
		b.add(i, float64(deg)+1.5) // strict diagonal dominance: SPD
		for _, j := range upper[i] {
			b.add(int(j), offVal)
		}
		b.endRow()
	}
	return b.m
}

// Partition assigns contiguous row blocks to ranks.
type Partition struct {
	starts []int // rank r owns rows [starts[r], starts[r+1])
}

// PartitionRows splits rows equally in length across n ranks, as the paper
// does ("without accounting for the number of nonzeros", §VI-D).
func PartitionRows(rows, n int) Partition {
	p := Partition{starts: make([]int, n+1)}
	for r := 0; r <= n; r++ {
		p.starts[r] = r * rows / n
	}
	return p
}

// Range reports rank r's row interval.
func (p Partition) Range(r int) (lo, hi int) { return p.starts[r], p.starts[r+1] }

// Count reports rank r's row count.
func (p Partition) Count(r int) int { return p.starts[r+1] - p.starts[r] }

// Counts returns all per-rank row counts (the Allgatherv counts array).
func (p Partition) Counts() []int {
	c := make([]int, len(p.starts)-1)
	for r := range c {
		c[r] = p.Count(r)
	}
	return c
}

// Displs returns the per-rank displacements (== starts[:n]).
func (p Partition) Displs() []int {
	return append([]int{}, p.starts[:len(p.starts)-1]...)
}

// Validate checks CSR invariants (sorted rowPtr, in-range columns).
func (m *CSR) Validate() error {
	if len(m.rowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d for %d rows", len(m.rowPtr), m.Rows)
	}
	if m.rowPtr[0] != 0 || m.rowPtr[m.Rows] != m.NNZ() {
		return fmt.Errorf("sparse: RowPtr endpoints %d..%d, nnz %d", m.rowPtr[0], m.rowPtr[m.Rows], m.NNZ())
	}
	for i := 0; i < m.Rows; i++ {
		if m.rowPtr[i] > m.rowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr decreases at %d", i)
		}
	}
	for _, c := range m.colIdx {
		if c < 0 || int(c) >= m.cols {
			return fmt.Errorf("sparse: column %d out of range", c)
		}
	}
	return nil
}
