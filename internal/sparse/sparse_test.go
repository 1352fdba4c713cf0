package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strings"
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

// raceSkips reports whether the race detector is on and the matrix is
// above 5 M entries, which would take it tens of seconds to generate.
func raceSkips(spec SyntheticSPDSpec, scale float64) bool {
	return raceEnabled && float64(spec.fullRows)*scale*float64(spec.nnzPerRow) > 5e6
}

// digest is the SHA-256 of the matrix's three arrays, little-endian.
func digest(m *CSR) string {
	h := sha256.New()
	for _, a := range []any{m.rowPtr, m.colIdx, m.vals} {
		if err := binary.Write(h, binary.LittleEndian, a); err != nil {
			panic(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDigests pins Generate's bytes: its draws, its column order
// (lower partners in draw order, the diagonal, upper partners in ascending
// row) and its values. Under the race detector only Serena at 0.01 and 0.05
// run.
func TestGenerateDigests(t *testing.T) {
	for _, c := range []struct {
		spec   SyntheticSPDSpec
		scale  float64
		digest string
	}{
		{Serena(), 0.01, "625837a5acfb6990eeb7b349038ed8ec69b2353f74abf9b00d663b8ae774f8e1"},
		{Serena(), 0.05, "9f6f7fb1dfea0b1f3a6c53a8abec179bca9acdf3b9b1bba2d208f7c240485517"},
		{Serena(), 0.2, "bcb51a2eb79757550565e994d6679598cde59f6efcebd7380b270896b4c41202"},
		{Queen4147(), 0.05, "e50b8d274f3a8ae4a8acc295f7627126ed1959be00ae5632d526878369ec3787"},
	} {
		if raceSkips(c.spec, c.scale) {
			continue
		}
		m := c.spec.Generate(c.scale)
		if err := m.Validate(); err != nil {
			t.Fatalf("%s at %g: %v", c.spec.Name, c.scale, err)
		}
		if got := digest(m); got != c.digest {
			t.Errorf("%s at %g: CSR digest %s, want %s", c.spec.Name, c.scale, got, c.digest)
		}
	}
}

// TestPhantomRowPtrEqualsCSR holds the phantom to the matrix it stands for:
// the same rows and row offsets, so every NNZRange a modelled cell reads.
// Under the race detector only Serena at 0.05 runs.
func TestPhantomRowPtrEqualsCSR(t *testing.T) {
	for _, c := range []struct {
		spec  SyntheticSPDSpec
		scale float64
	}{{Serena(), 0.05}, {Serena(), 0.2}, {Queen4147(), 0.05}} {
		if raceSkips(c.spec, c.scale) {
			continue
		}
		m, ph := c.spec.Generate(c.scale), c.spec.Phantom(c.scale)
		if !ph.Phantom() || m.Phantom() {
			t.Fatalf("%s at %g: Phantom() reports %v for the phantom, %v for the CSR", c.spec.Name, c.scale, ph.Phantom(), m.Phantom())
		}
		if err := ph.Validate(); err != nil {
			t.Fatalf("%s at %g: phantom: %v", c.spec.Name, c.scale, err)
		}
		if ph.Rows != m.Rows || ph.NNZ() != m.NNZ() || !slices.Equal(ph.rowPtr, m.rowPtr) {
			t.Errorf("%s at %g: phantom %d rows, %d nnz; CSR %d rows, %d nnz; row offsets equal: %v",
				c.spec.Name, c.scale, ph.Rows, ph.NNZ(), m.Rows, m.NNZ(), slices.Equal(ph.rowPtr, m.rowPtr))
		}
	}
}

// TestGenerateAllocs bounds Generate to a fixed handful of objects, its
// flat arrays and the generator: no adjacency list or append per row.
func TestGenerateAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(3, func() { Serena().Generate(0.01) }); got > 16 {
		t.Errorf("Serena().Generate(0.01) allocates %.0f objects, want at most 16", got)
	}
}

func TestPhantomSpMVPanics(t *testing.T) {
	m := Serena().Phantom(0.001)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "Serena-like") || !strings.Contains(msg, "phantom") {
			t.Errorf("SpMV on a phantom panicked with %q, want it to name the phantom Serena-like matrix", msg)
		}
	}()
	m.SpMV(make([]float64, 4), make([]float64, m.Rows), 0, 4)
}
