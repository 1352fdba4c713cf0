package sparse

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLaplace3DStructure(t *testing.T) {
	m := Laplace3D(4, 3, 2)
	if m.Rows != 24 || m.cols != 24 {
		t.Fatalf("dims %dx%d", m.Rows, m.cols)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Interior points have 7 entries; corners 4.
	if got := m.rowPtr[1] - m.rowPtr[0]; got != 4 {
		t.Errorf("corner row nnz = %d", got)
	}
	// Symmetry check: A[i][j] present iff A[j][i] present.
	type pair struct{ i, j int32 }
	entries := map[pair]float64{}
	for i := 0; i < m.Rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			entries[pair{int32(i), m.colIdx[k]}] = m.vals[k]
		}
	}
	for p, v := range entries {
		if entries[pair{p.j, p.i}] != v {
			t.Fatalf("asymmetric at (%d,%d)", p.i, p.j)
		}
	}
}

func TestSyntheticSpecsValidateAndScale(t *testing.T) {
	for _, spec := range []SyntheticSPDSpec{Serena(), Queen4147()} {
		m := spec.Generate(0.002)
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if m.Rows != spec.rows(0.002) {
			t.Fatalf("%s rows = %d", spec.Name, m.Rows)
		}
		// Average nnz/row should be in the ballpark of the target (the
		// band clipping near row 0 loses some).
		avg := float64(m.NNZ()) / float64(m.Rows)
		if avg < float64(spec.nnzPerRow)/3 || avg > float64(spec.nnzPerRow)*1.5 {
			t.Errorf("%s avg nnz/row = %.1f, target %d", spec.Name, avg, spec.nnzPerRow)
		}
	}
}

func TestSyntheticSymmetricAndDominant(t *testing.T) {
	m := Serena().Generate(0.001)
	type pair struct{ i, j int32 }
	seen := map[pair]bool{}
	for i := 0; i < m.Rows; i++ {
		var diag, off float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			j := m.colIdx[k]
			if int(j) == i {
				diag = m.vals[k]
			} else {
				off += math.Abs(m.vals[k])
				seen[pair{int32(i), j}] = true
			}
		}
		if diag <= off {
			t.Fatalf("row %d not dominant: diag %v, off-sum %v", i, diag, off)
		}
	}
	for p := range seen {
		if !seen[pair{p.j, p.i}] {
			t.Fatalf("asymmetric structure at (%d,%d)", p.i, p.j)
		}
	}
}

func TestSpMVAgainstDense(t *testing.T) {
	m := Laplace3D(3, 3, 3)
	n := m.Rows
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	// Dense reference.
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			want[i] += m.vals[k] * x[m.colIdx[k]]
		}
	}
	// Partitioned SpMV must agree.
	p := PartitionRows(n, 4)
	got := make([]float64, n)
	for r := 0; r < 4; r++ {
		lo, hi := p.Range(r)
		m.SpMV(got[lo:hi], x, lo, hi)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPartitionRowsProperty(t *testing.T) {
	f := func(rows uint16, ranks uint8) bool {
		n := int(ranks)%16 + 1
		r := int(rows)%5000 + n
		p := PartitionRows(r, n)
		if p.starts[0] != 0 || p.starts[n] != r {
			return false
		}
		total := 0
		for i := 0; i < n; i++ {
			c := p.Count(i)
			if c < 0 {
				return false
			}
			total += c
		}
		// Balanced within one row.
		for i := 0; i < n; i++ {
			if p.Count(i) > r/n+1 {
				return false
			}
		}
		return total == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountsDispls(t *testing.T) {
	p := PartitionRows(10, 3)
	counts, displs := p.Counts(), p.Displs()
	if len(counts) != 3 || len(displs) != 3 {
		t.Fatalf("lens %d %d", len(counts), len(displs))
	}
	if displs[0] != 0 || displs[1] != counts[0] || displs[2] != counts[0]+counts[1] {
		t.Fatalf("displs %v counts %v", displs, counts)
	}
}
