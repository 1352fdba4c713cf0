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

// CSR is a compressed-sparse-row matrix. A phantom CSR
// (SyntheticSPDSpec.Phantom) holds the row offsets and no entries: what a
// modelled CG cell reads (Rows, NNZRange) and nothing it could multiply.
type CSR struct {
	Rows, cols int
	rowPtr     []int64
	colIdx     []int32 // nil in a phantom
	vals       []float64
	name       string // the generator's, for a phantom's panic
}

// NNZ reports the number of stored entries (a phantom's would-be count).
func (m *CSR) NNZ() int64 { return m.rowPtr[m.Rows] }

// NNZRange reports the stored entries in rows [lo, hi).
func (m *CSR) NNZRange(lo, hi int) int64 { return m.rowPtr[hi] - m.rowPtr[lo] }

// Phantom reports whether the matrix holds counts only.
func (m *CSR) Phantom() bool { return m.colIdx == nil }

// SpMV computes y = A x for the rows [lo, hi) (y indexed from lo). It
// panics on a phantom matrix, which has no entries to multiply.
func (m *CSR) SpMV(y, x []float64, lo, hi int) {
	if m.Phantom() {
		panic(fmt.Sprintf("sparse: SpMV on phantom %s (%d rows, %d nnz): a phantom matrix holds counts, no entries", m.name, m.Rows, m.NNZ()))
	}
	y = y[:hi-lo]
	rowPtr := m.rowPtr[lo : hi+1]
	for i := range y {
		// The row's entries as sub-slices of one length: no bounds check
		// per entry but x's. The sum keeps its order.
		cols, vals := m.colIdx[rowPtr[i]:rowPtr[i+1]], m.vals[rowPtr[i]:rowPtr[i+1]]
		vals = vals[:len(cols)]
		sum := 0.0
		for k, c := range cols {
			sum += vals[k] * x[c]
		}
		y[i] = sum
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

// partners replays the generator's draws for an n-row matrix: row by row
// in ascending order, up to halves draws each, it calls emit(i, j) for
// every lower-triangle partner j < i it accepts, in draw order. A partner
// may repeat. Generate and Phantom both run it, so their row offsets agree
// by construction.
func (s SyntheticSPDSpec) partners(n int, emit func(i, j int)) {
	rng := rand.New(rand.NewSource(s.seed))
	band := int(float64(n) * s.bandWidth)
	if band < 2 {
		band = 2
	}
	halves := s.halves()
	for i := 0; i < n; i++ {
		for range halves {
			var j int
			if rng.Float64() < s.bandFraction {
				j = i - 1 - rng.Intn(band)
			} else {
				j = rng.Intn(i + 1)
			}
			if j >= 0 && j < i {
				emit(i, j)
			}
		}
	}
}

// halves is the lower-triangle draws per row.
func (s SyntheticSPDSpec) halves() int { return max(s.nnzPerRow-1, 2) / 2 }

// countDegree counts partner j of row i into both rows' off-diagonal
// degrees, at rowPtr[i+1] and rowPtr[j+1], for rowOffsets.
func countDegree(rowPtr []int64, i, j int) {
	rowPtr[i+1]++
	rowPtr[j+1]++
}

// rowOffsets turns the off-diagonal degrees at rowPtr[i+1] into CSR row
// offsets, with one diagonal entry per row.
func rowOffsets(rowPtr []int64) {
	for i := 1; i < len(rowPtr); i++ {
		rowPtr[i] += rowPtr[i-1] + 1
	}
}

// Phantom is Generate's matrix without its entries: the row count and row
// offsets, from a pass that replays the draws and counts degrees. It holds
// (rows+1) int64s however dense the matrix: Queen_4147 at scale 1.0 is
// 33 MB instead of the CSR's 4 GB. A modelled CG cell reads nothing more.
func (s SyntheticSPDSpec) Phantom(scale float64) *CSR {
	n := s.rows(scale)
	rowPtr := make([]int64, n+1)
	s.partners(n, func(i, j int) { countDegree(rowPtr, i, j) })
	rowOffsets(rowPtr)
	return &CSR{Rows: n, cols: n, rowPtr: rowPtr, name: s.Name}
}

// Generate materializes the matrix at the given scale: a diagonally
// dominant symmetric pattern with s.nnzPerRow entries per row. Row i holds
// its lower partners in draw order, the diagonal, then the rows that drew
// it in ascending order, each off-diagonal entry -1.
//
// The draws fill one flat array of lower partners, row after row, with a
// count per row; rows are then written straight into the presized CSR
// arrays, the upper half by a counting-sort transpose (next[j] is row j's
// next free upper slot, filled as i ascends).
func (s SyntheticSPDSpec) Generate(scale float64) *CSR {
	n := s.rows(scale)
	rowPtr := make([]int64, n+1)
	lower := make([]int32, n*s.halves())
	nLower := make([]int32, n)
	drawn := 0
	s.partners(n, func(i, j int) {
		lower[drawn] = int32(j)
		drawn++
		nLower[i]++
		countDegree(rowPtr, i, j)
	})
	rowOffsets(rowPtr)
	m := &CSR{Rows: n, cols: n, rowPtr: rowPtr, name: s.Name,
		colIdx: make([]int32, rowPtr[n]), vals: make([]float64, rowPtr[n])}
	next := make([]int64, n)
	for i := 0; i < n; i++ {
		base, own := rowPtr[i], lower[:nLower[i]]
		lower = lower[len(own):]
		copy(m.colIdx[base:], own)
		diag := base + int64(len(own))
		m.colIdx[diag] = int32(i)
		next[i] = diag + 1
		for _, j := range own {
			m.colIdx[next[j]] = int32(i)
			next[j]++
		}
		vals := m.vals[base:rowPtr[i+1]]
		for c := range vals {
			vals[c] = -1
		}
		vals[len(own)] = float64(len(vals)-1) + 1.5 // strict diagonal dominance: SPD
	}
	return m
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

// Validate checks CSR invariants (sorted rowPtr, in-range columns; a
// phantom's offsets only).
func (m *CSR) Validate() error {
	if len(m.rowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d for %d rows", len(m.rowPtr), m.Rows)
	}
	if m.rowPtr[0] != 0 || !m.Phantom() && m.rowPtr[m.Rows] != int64(len(m.colIdx)) {
		return fmt.Errorf("sparse: RowPtr endpoints %d..%d, %d entries", m.rowPtr[0], m.rowPtr[m.Rows], len(m.colIdx))
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
