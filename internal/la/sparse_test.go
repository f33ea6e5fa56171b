package la

import (
	"math"
	"testing"
	"testing/quick"
)

func tripletsFor(t *testing.T) []Triplet {
	t.Helper()
	return []Triplet{
		{Row: 0, Col: 0, Val: 1},
		{Row: 2, Col: 0, Val: 2},
		{Row: 1, Col: 2, Val: 3},
		{Row: 3, Col: 2, Val: 4},
		{Row: 0, Col: 3, Val: 5},
	}
}

func TestCSCAssembly(t *testing.T) {
	m := NewSparseCSCFromTriplets(4, 4, tripletsFor(t))
	if m.NNZ() != 5 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if m.At(0, 0) != 1 || m.At(2, 0) != 2 || m.At(1, 2) != 3 || m.At(3, 2) != 4 || m.At(0, 3) != 5 {
		t.Error("stored values wrong")
	}
	if m.At(1, 1) != 0 || m.At(3, 3) != 0 {
		t.Error("absent values should be zero")
	}
	// Column 1 is empty: ColPtr must still be monotone.
	if m.ColPtr[1] != 2 || m.ColPtr[2] != 2 {
		t.Errorf("ColPtr = %v", m.ColPtr)
	}
}

func TestCSCAssemblyUnsortedAndDuplicates(t *testing.T) {
	ts := []Triplet{
		{Row: 3, Col: 1, Val: 1},
		{Row: 0, Col: 1, Val: 2},
		{Row: 3, Col: 1, Val: 10}, // duplicate of first: summed
		{Row: 2, Col: 0, Val: 7},
	}
	m := NewSparseCSCFromTriplets(4, 2, ts)
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 (duplicates merged)", m.NNZ())
	}
	if m.At(3, 1) != 11 {
		t.Errorf("duplicate sum = %v, want 11", m.At(3, 1))
	}
	// Rows sorted within column 1.
	if m.RowIdx[m.ColPtr[1]] != 0 {
		t.Error("rows not sorted within column")
	}
}

func TestCSCEmpty(t *testing.T) {
	m := NewSparseCSCFromTriplets(3, 3, nil)
	if m.NNZ() != 0 {
		t.Error("empty NNZ != 0")
	}
	y := NewVector(3)
	m.MultVec(Vector{1, 2, 3}, y)
	if y.Sum() != 0 {
		t.Error("empty matrix mult should be zero")
	}
}

func TestCSCMultVecAgainstDense(t *testing.T) {
	rng := NewRNG(11)
	s := RandomSparseCSC(20, 15, 4, rng)
	d := s.ToDense()
	x := RandomVector(15, rng)
	ys := NewVector(20)
	s.MultVec(x, ys)
	yd := NewVector(20)
	d.MultVec(x, yd)
	if !ys.EqualApprox(yd, 1e-12) {
		t.Error("sparse MultVec disagrees with dense")
	}
}

func TestCSCTransMultVecAgainstDense(t *testing.T) {
	rng := NewRNG(12)
	s := RandomSparseCSC(20, 15, 4, rng)
	d := s.ToDense()
	x := RandomVector(20, rng)
	ys := NewVector(15)
	s.TransMultVec(x, ys)
	yd := NewVector(15)
	d.TransMultVec(x, yd)
	if !ys.EqualApprox(yd, 1e-12) {
		t.Error("sparse TransMultVec disagrees with dense")
	}
}

// denseNNZ counts the nonzeros of d inside the rows×cols region at (r0, c0).
func denseNNZ(d *DenseMatrix, r0, c0, rows, cols int) int {
	n := 0
	for i := r0; i < r0+rows; i++ {
		for j := c0; j < c0+cols; j++ {
			if d.At(i, j) != 0 {
				n++
			}
		}
	}
	return n
}

func TestCSRCountSubNNZ(t *testing.T) {
	rng := NewRNG(13)
	s := RandomSparseCSC(12, 10, 3, rng).ToCSR()
	d := s.ToDense()
	for _, reg := range [][4]int{{0, 0, 12, 10}, {2, 3, 5, 4}, {11, 9, 1, 1}, {0, 0, 1, 10}, {4, 0, 8, 10}, {0, 6, 12, 0}} {
		want := denseNNZ(d, reg[0], reg[1], reg[2], reg[3])
		if got := s.CountSubNNZ(reg[0], reg[1], reg[2], reg[3]); got != want {
			t.Errorf("CountSubNNZ(%v) = %d, want %d", reg, got, want)
		}
	}
}

func TestCSRExtractSubPresized(t *testing.T) {
	rng := NewRNG(14)
	s := RandomSparseCSC(12, 10, 3, rng).ToCSR()
	for _, reg := range [][4]int{{2, 3, 6, 5}, {0, 0, 12, 10}, {5, 0, 4, 10}, {11, 9, 1, 1}} {
		n := s.CountSubNNZ(reg[0], reg[1], reg[2], reg[3])
		sub := s.ExtractSubPresized(reg[0], reg[1], reg[2], reg[3], n)
		want := s.ToDense().ExtractSub(reg[0], reg[1], reg[2], reg[3])
		if !sub.ToDense().EqualApprox(want, 0) {
			t.Errorf("ExtractSubPresized(%v) disagrees with dense path", reg)
		}
		if sub.NNZ() != n || len(sub.ColIdx) != cap(sub.ColIdx) {
			t.Errorf("ExtractSubPresized(%v): nnz %d (cap %d), counted %d", reg, sub.NNZ(), cap(sub.ColIdx), n)
		}
	}
}

// Property: an extracted region of a CSR matrix is the dense region, in
// canonical form (columns ascending within each row).
func TestCSRExtractSubProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		rows := 2 + rng.Intn(10)
		cols := 2 + rng.Intn(10)
		m := RandomSparseCSC(rows, cols, 1+rng.Intn(rows), rng).ToCSR()
		r0 := rng.Intn(rows)
		c0 := rng.Intn(cols)
		sr := 1 + rng.Intn(rows-r0)
		sc := 1 + rng.Intn(cols-c0)
		sub := m.ExtractSubPresized(r0, c0, sr, sc, m.CountSubNNZ(r0, c0, sr, sc))
		for i := 0; i < sr; i++ {
			for k := sub.RowPtr[i] + 1; k < sub.RowPtr[i+1]; k++ {
				if sub.ColIdx[k] <= sub.ColIdx[k-1] {
					return false
				}
			}
		}
		return sub.ToDense().EqualApprox(m.ToDense().ExtractSub(r0, c0, sr, sc), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCSCCloneIndependent(t *testing.T) {
	m := NewSparseCSCFromTriplets(2, 2, []Triplet{{Row: 0, Col: 0, Val: 1}})
	c := m.Clone()
	c.Vals[0] = 9
	if m.Vals[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestCSCScaleAndTriplets(t *testing.T) {
	m := NewSparseCSCFromTriplets(4, 4, tripletsFor(t))
	m.Scale(2)
	if m.At(0, 3) != 10 {
		t.Error("Scale failed")
	}
	ts := m.Triplets()
	back := NewSparseCSCFromTriplets(4, 4, ts)
	if !back.EqualApprox(m, 0) {
		t.Error("Triplets roundtrip failed")
	}
}

func TestCSRBasics(t *testing.T) {
	m := NewSparseCSRFromTriplets(4, 4, tripletsFor(t))
	if m.NNZ() != 5 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if m.At(2, 0) != 2 || m.At(3, 2) != 4 || m.At(1, 1) != 0 {
		t.Error("At wrong")
	}
	c := m.Clone()
	c.Vals[0] = 99
	if m.Vals[0] == 99 {
		t.Error("Clone shares storage")
	}
	m.Scale(3)
	if m.At(0, 0) != 3 {
		t.Error("Scale failed")
	}
}

func TestCSRMultVecAgainstDense(t *testing.T) {
	rng := NewRNG(16)
	csc := RandomSparseCSC(18, 14, 4, rng)
	csr := csc.ToCSR()
	d := csc.ToDense()
	x := RandomVector(14, rng)
	y1 := NewVector(18)
	csr.MultVec(x, y1)
	y2 := NewVector(18)
	d.MultVec(x, y2)
	if !y1.EqualApprox(y2, 1e-12) {
		t.Error("CSR MultVec disagrees with dense")
	}
	xt := RandomVector(18, rng)
	z1 := NewVector(14)
	csr.TransMultVec(xt, z1)
	z2 := NewVector(14)
	d.TransMultVec(xt, z2)
	if !z1.EqualApprox(z2, 1e-12) {
		t.Error("CSR TransMultVec disagrees with dense")
	}
}

func TestCSCCSRConversionRoundtrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		rows := 1 + rng.Intn(12)
		cols := 1 + rng.Intn(12)
		nnz := rng.Intn(rows + 1)
		m := RandomSparseCSC(rows, cols, nnz, rng)
		back := m.ToCSR().ToCSC()
		return back.EqualApprox(m, 0) && back.NNZ() == m.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCSRTripletsAndDense(t *testing.T) {
	m := NewSparseCSRFromTriplets(4, 4, tripletsFor(t))
	back := NewSparseCSRFromTriplets(4, 4, m.Triplets())
	if !back.EqualApprox(m, 0) {
		t.Error("CSR Triplets roundtrip failed")
	}
	if !m.ToDense().EqualApprox(m.ToCSC().ToDense(), 0) {
		t.Error("CSR/CSC ToDense mismatch")
	}
}

func TestSparseBytesAndString(t *testing.T) {
	m := NewSparseCSCFromTriplets(4, 4, tripletsFor(t))
	if m.Bytes() != 16*5+8*5 {
		t.Errorf("CSC Bytes = %d", m.Bytes())
	}
	if m.String() != "SparseCSC(4x4, nnz=5)" {
		t.Errorf("String = %q", m.String())
	}
	r := m.ToCSR()
	if r.String() != "SparseCSR(4x4, nnz=5)" {
		t.Errorf("String = %q", r.String())
	}
	if r.Bytes() != 16*5+8*5 {
		t.Errorf("CSR Bytes = %d", r.Bytes())
	}
}

func TestLinkMatrixColumnStochastic(t *testing.T) {
	rng := NewRNG(77)
	g := LinkMatrix(50, 4, rng)
	if g.Rows != 50 || g.Cols != 50 || g.NNZ() != 200 {
		t.Fatalf("LinkMatrix shape %v nnz %d", g, g.NNZ())
	}
	// Each column sums to 1 (column-stochastic).
	ones := NewVector(50).Fill(1)
	sums := NewVector(50)
	g.TransMultVec(ones, sums)
	for j, s := range sums {
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("column %d sums to %v", j, s)
		}
	}
}

func TestRandomSparseCSCShape(t *testing.T) {
	rng := NewRNG(5)
	m := RandomSparseCSC(30, 10, 7, rng)
	if m.NNZ() != 70 {
		t.Errorf("NNZ = %d, want 70", m.NNZ())
	}
	// Rows distinct and sorted per column.
	for j := 0; j < 10; j++ {
		for k := m.ColPtr[j] + 1; k < m.ColPtr[j+1]; k++ {
			if m.RowIdx[k] <= m.RowIdx[k-1] {
				t.Fatal("rows not sorted/distinct within column")
			}
		}
	}
}

func TestLabeledExamples(t *testing.T) {
	rng := NewRNG(6)
	x, y, yb := LabeledExamples(40, 8, 0.01, rng)
	if x.Rows != 40 || x.Cols != 8 || len(y) != 40 || len(yb) != 40 {
		t.Fatal("shapes wrong")
	}
	for _, b := range yb {
		if b != 0 && b != 1 {
			t.Fatalf("binary label %v", b)
		}
	}
	// Labels correlate with features via the planted model: y should not be
	// all zeros.
	if y.Norm2() == 0 {
		t.Error("labels are all zero")
	}
}

func TestTripletValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range triplet")
		}
	}()
	NewSparseCSCFromTriplets(2, 2, []Triplet{{Row: 5, Col: 0, Val: 1}})
}
