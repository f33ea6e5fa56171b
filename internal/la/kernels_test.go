package la

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/par"
)

// kernelWorkerCounts are the pool sizes every parallel kernel is checked
// under. Results must be bit-identical across all of them (the package
// determinism contract): chunk geometry depends on problem size only.
var kernelWorkerCounts = []int{1, 2, 3, 7, runtime.NumCPU()}

// withWorkers runs f once per worker count and restores the default.
func withWorkers(t *testing.T, f func(t *testing.T, w int)) {
	t.Helper()
	defer par.SetWorkers(0)
	for _, w := range kernelWorkerCounts {
		par.SetWorkers(w)
		f(t, w)
	}
}

func testRandDense(rows, cols int, rng *rand.Rand) *DenseMatrix {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func testRandVec(n int, rng *rand.Rand) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func testRandSparse(rows, cols, nnzPerCol int, rng *rand.Rand) *SparseCSC {
	trips := make([]Triplet, 0, cols*nnzPerCol)
	for j := 0; j < cols; j++ {
		seen := map[int]bool{}
		for len(seen) < nnzPerCol {
			i := rng.Intn(rows)
			if !seen[i] {
				seen[i] = true
				trips = append(trips, Triplet{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return NewSparseCSCFromTriplets(rows, cols, trips)
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkWorkerInvariance runs compute at workers=1 for the reference and
// asserts every other worker count reproduces it bit for bit.
func checkWorkerInvariance(t *testing.T, name string, compute func() []float64) {
	t.Helper()
	defer par.SetWorkers(0)
	par.SetWorkers(1)
	ref := compute()
	for _, w := range kernelWorkerCounts[1:] {
		par.SetWorkers(w)
		got := compute()
		if !bitEqual(ref, got) {
			t.Fatalf("%s: result at workers=%d differs bitwise from workers=1", name, w)
		}
	}
}

func TestDenseMultVecWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Sizes straddling the grain and the 4-column group width.
	for _, sz := range [][2]int{{1, 1}, {7, 5}, {100, 103}, {777, 1030}, {2048, 513}} {
		m := testRandDense(sz[0], sz[1], rng)
		x := testRandVec(sz[1], rng)
		checkWorkerInvariance(t, "DenseMatrix.MultVec", func() []float64 {
			y := NewVector(sz[0])
			m.MultVec(x, y)
			return y
		})
	}
}

// TestDenseMultVecMatchesNaive: the 4-column register blocking folds into
// y with left-to-right adds, which is the same per-element accumulation
// order as the naive column sweep — so the match is exact, not approximate.
func TestDenseMultVecMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := testRandDense(257, 130, rng)
	x := testRandVec(130, rng)
	y := NewVector(257)
	m.MultVec(x, y)
	ref := NewVector(257)
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			ref[i] += m.Data[j*m.Rows+i] * x[j]
		}
	}
	if !bitEqual(y, ref) {
		t.Fatal("MultVec differs bitwise from naive column sweep")
	}
}

func TestDenseTransMultVecWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sz := range [][2]int{{5, 3}, {513, 771}, {2048, 100}} {
		m := testRandDense(sz[0], sz[1], rng)
		x := testRandVec(sz[0], rng)
		checkWorkerInvariance(t, "DenseMatrix.TransMultVec", func() []float64 {
			y := NewVector(sz[1])
			m.TransMultVec(x, y)
			return y
		})
	}
}

func TestDenseTransMultVecMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := testRandDense(301, 77, rng)
	x := testRandVec(301, rng)
	y := NewVector(77)
	m.TransMultVec(x, y)
	for j := 0; j < m.Cols; j++ {
		var s float64
		for i := 0; i < m.Rows; i++ {
			s += m.Data[j*m.Rows+i] * x[i]
		}
		if math.Abs(y[j]-s) > 1e-9*(1+math.Abs(s)) {
			t.Fatalf("TransMultVec[%d] = %g, naive %g", j, y[j], s)
		}
	}
}

func TestDenseMultWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Shapes exercising the 4x4 micro-kernel remainders in i, j and k,
	// and chunk counts above and below the worker counts.
	for _, sz := range [][3]int{{1, 1, 1}, {5, 7, 3}, {64, 65, 66}, {130, 129, 131}, {256, 300, 67}} {
		a := testRandDense(sz[0], sz[1], rng)
		b := testRandDense(sz[1], sz[2], rng)
		checkWorkerInvariance(t, "DenseMatrix.Mult", func() []float64 {
			c := NewDense(sz[0], sz[2])
			a.Mult(b, c)
			return c.Data
		})
	}
}

// TestDenseMultMatchesNaive: the micro-kernel accumulates each c[i,j] in
// ascending-k order with left-to-right adds, matching the naive triple
// loop exactly.
func TestDenseMultMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := testRandDense(67, 45, rng)
	b := testRandDense(45, 38, rng)
	c := NewDense(67, 38)
	a.Mult(b, c)
	ref := NewDense(67, 38)
	for j := 0; j < b.Cols; j++ {
		for k := 0; k < a.Cols; k++ {
			bkj := b.Data[j*b.Rows+k]
			for i := 0; i < a.Rows; i++ {
				ref.Data[j*ref.Rows+i] += a.Data[k*a.Rows+i] * bkj
			}
		}
	}
	if !bitEqual(c.Data, ref.Data) {
		t.Fatal("Mult differs bitwise from naive triple loop")
	}
}

func TestAccumKernelsWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := testRandSparse(400, 300, 9, rng).ToCSR()
	a := testRandDense(400, 13, rng)
	h := testRandDense(13, 300, rng)
	bb := testRandDense(400, 21, rng)

	checkWorkerInvariance(t, "AccumTransDenseSparse", func() []float64 {
		out := NewDense(13, 300)
		AccumTransDenseSparse(a, s, out)
		return out.Data
	})
	checkWorkerInvariance(t, "AccumSparseMultDenseT", func() []float64 {
		out := NewDense(400, 13)
		AccumSparseMultDenseT(s, h, out)
		return out.Data
	})
	checkWorkerInvariance(t, "AccumTransDenseDense", func() []float64 {
		out := NewDense(13, 21)
		AccumTransDenseDense(a, bb, out)
		return out.Data
	})
}

// TestAccumSparseMultDenseTMatchesNaive: the row-parallel CSR kernel must
// reproduce the naive column-major loop bit for bit — every output element
// sees the identical accumulation sequence.
func TestAccumSparseMultDenseTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := testRandSparse(5000, 200, 7, rng)
	h := testRandDense(9, 200, rng)
	out := NewDense(5000, 9)
	AccumSparseMultDenseT(s.ToCSR(), h, out)
	ref := NewDense(5000, 9)
	k := h.Rows
	for j := 0; j < s.Cols; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			i, v := s.RowIdx[p], s.Vals[p]
			for kk := 0; kk < k; kk++ {
				ref.Data[i+kk*ref.Rows] += v * h.Data[j*k+kk]
			}
		}
	}
	if !bitEqual(out.Data, ref.Data) {
		t.Fatal("AccumSparseMultDenseT differs bitwise from naive loop")
	}
}

func TestSparseMultVecWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := testRandSparse(9001, 500, 8, rng)
	x := testRandVec(500, rng)
	checkWorkerInvariance(t, "SparseCSC.MultVec", func() []float64 {
		y := NewVector(9001)
		s.MultVec(x, y)
		return y
	})
	xr := testRandVec(9001, rng)
	checkWorkerInvariance(t, "SparseCSC.TransMultVec", func() []float64 {
		y := NewVector(500)
		s.TransMultVec(xr, y)
		return y
	})
}

// TestSparseMultVecMatchesNaive: row-range scatter must be bit-identical
// to the naive per-column scatter.
func TestSparseMultVecMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := testRandSparse(9001, 500, 8, rng)
	x := testRandVec(500, rng)
	x[3], x[100] = 0, 0 // exercise the xj==0 skip
	y := NewVector(9001)
	s.MultVec(x, y)
	ref := NewVector(9001)
	for j := 0; j < s.Cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for k := s.ColPtr[j]; k < s.ColPtr[j+1]; k++ {
			ref[s.RowIdx[k]] += s.Vals[k] * xj
		}
	}
	if !bitEqual(y, ref) {
		t.Fatal("SparseCSC.MultVec differs bitwise from naive scatter")
	}
}

func TestVectorOpsWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 1000, 100_000} {
		v := testRandVec(n, rng)
		w := testRandVec(n, rng)
		checkWorkerInvariance(t, "Vector.Dot", func() []float64 {
			return []float64{v.Dot(w)}
		})
		checkWorkerInvariance(t, "Vector.Sum", func() []float64 {
			return []float64{v.Sum()}
		})
		checkWorkerInvariance(t, "Vector.Norm2", func() []float64 {
			return []float64{v.Norm2()}
		})
		checkWorkerInvariance(t, "SumSquares", func() []float64 {
			return []float64{SumSquares(v)}
		})
		checkWorkerInvariance(t, "Vector.Axpy", func() []float64 {
			return v.Clone().Axpy(0.25, w)
		})
		checkWorkerInvariance(t, "Vector.Apply", func() []float64 {
			return v.Clone().Apply(Sigmoid)
		})
	}
}

func TestVectorDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	v := testRandVec(50_000, rng)
	w := testRandVec(50_000, rng)
	got := v.Dot(w)
	var ref float64
	for i := range v {
		ref += v[i] * w[i]
	}
	if math.Abs(got-ref) > 1e-8*(1+math.Abs(ref)) {
		t.Fatalf("Dot = %g, naive %g", got, ref)
	}
}

func TestFrobNormWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := testRandDense(333, 77, rng)
	checkWorkerInvariance(t, "DenseMatrix.FrobNorm", func() []float64 {
		return []float64{m.FrobNorm()}
	})
}

func TestKernelsUnderEveryWorkerCount(t *testing.T) {
	// Smoke: the full dense pipeline at each worker count agrees with
	// itself run twice (determinism within a fixed count, catching any
	// scheduling-dependent state).
	rng := rand.New(rand.NewSource(14))
	a := testRandDense(120, 80, rng)
	b := testRandDense(80, 60, rng)
	withWorkers(t, func(t *testing.T, w int) {
		c1 := NewDense(120, 60)
		a.Mult(b, c1)
		c2 := NewDense(120, 60)
		a.Mult(b, c2)
		if !bitEqual(c1.Data, c2.Data) {
			t.Fatalf("workers=%d: repeated Mult not deterministic", w)
		}
	})
}

// sparseKernelOutputs holds one run of the four sparse kernels: MultVec,
// TransMultVec, AccumSparseMultDenseT and AccumTransDenseSparse.
type sparseKernelOutputs [4][]float64

// sparseCase is one input set for the CSR/CSC bitwise table.
type sparseCase struct {
	name       string
	rows, cols int
	ts         []Triplet
	x, xt      Vector       // MultVec / TransMultVec operands
	h, a, base *DenseMatrix // accumulation operands; base seeds both outputs
}

// cscReference runs c through the CSC kernels and, for the two
// accumulations, the naive column-major loops.
func cscReference(c sparseCase) sparseKernelOutputs {
	s := NewSparseCSCFromTriplets(c.rows, c.cols, c.ts)
	var out sparseKernelOutputs
	out[0] = NewVector(c.rows)
	s.MultVec(c.x, out[0])
	out[1] = NewVector(c.cols)
	s.TransMultVec(c.xt, out[1])
	sdt := c.base.Clone()
	tds := NewDense(c.a.Cols, c.cols)
	k := c.h.Rows
	for j := 0; j < s.Cols; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			i, v := s.RowIdx[p], s.Vals[p]
			for kk := 0; kk < k; kk++ {
				sdt.Data[i+kk*sdt.Rows] += v * c.h.Data[j*k+kk]
				tds.Data[j*k+kk] += v * c.a.Data[i+kk*c.a.Rows]
			}
		}
	}
	out[2], out[3] = sdt.Data, tds.Data
	return out
}

// csrRun runs c through the CSR kernels the matrix blocks use.
func csrRun(c sparseCase) sparseKernelOutputs {
	s := NewSparseCSRFromTriplets(c.rows, c.cols, c.ts)
	var out sparseKernelOutputs
	out[0] = NewVector(c.rows)
	s.MultVec(c.x, out[0])
	out[1] = NewVector(c.cols)
	s.TransMultVec(c.xt, out[1])
	sdt := c.base.Clone()
	AccumSparseMultDenseT(s, c.h, sdt)
	tds := NewDense(c.a.Cols, c.cols)
	AccumTransDenseSparse(c.a, s, tds)
	out[2], out[3] = sdt.Data, tds.Data
	return out
}

// sparseSpecialsCase is a 6×7 matrix with an empty row (2), an empty
// column (3), a triplicated entry whose sum depends on the order, and
// Inf/NaN values in columns where x is ±0 — so a MultVec that stopped
// skipping zero x entries turns them into NaN, and a TransMultVec that
// started skipping zero entries loses the NaN the CSC kernel produces.
func sparseSpecialsCase(rng *rand.Rand) sparseCase {
	inf, nan := math.Inf(1), math.NaN()
	ts := []Triplet{
		{0, 1, 0.1}, {0, 1, 0.2}, {0, 1, 0.3}, // duplicates: (0.1+0.2)+0.3
		{0, 6, 1.5}, {1, 4, inf}, {1, 0, -0.75}, {3, 0, math.Inf(-1)},
		{3, 2, 2.5}, {4, 5, nan}, {4, 2, -1}, {5, 6, 0.125}, {5, 1, 3},
		{1, 4, 0.5}, // duplicate of an Inf: still Inf
	}
	return sparseCase{
		name: "specials", rows: 6, cols: 7, ts: ts,
		x:    Vector{math.Inf(-1), nan, -2, 3, 0, math.Copysign(0, -1), inf},
		xt:   Vector{0, math.Copysign(0, -1), nan, inf, math.Inf(-1), 1.25},
		h:    testRandDense(3, 7, rng),
		a:    testRandDense(6, 3, rng),
		base: testRandDense(6, 3, rng),
	}
}

// sparseChunkedCase is large enough that the row-parallel kernels run in
// two chunks (rows > spRowGrain) and the column-range ones in two
// (cols > spColRangeGrain), with random duplicates and zeros in x.
func sparseChunkedCase(rng *rand.Rand) sparseCase {
	const rows, cols, k = 5000, 40000, 3
	var ts []Triplet
	for j := 0; j < cols; j++ {
		for n := rng.Intn(4); n > 0; n-- {
			ts = append(ts, Triplet{Row: rng.Intn(rows), Col: j, Val: rng.NormFloat64()})
		}
	}
	x, xt := testRandVec(cols, rng), testRandVec(rows, rng)
	for i := 0; i < cols; i += 97 {
		x[i] = math.Copysign(0, float64(i%2)-0.5)
	}
	for i := 0; i < rows; i += 89 {
		xt[i] = 0
	}
	x[11], xt[13] = math.Inf(1), math.NaN()
	return sparseCase{
		name: "chunked", rows: rows, cols: cols, ts: ts, x: x, xt: xt,
		h:    testRandDense(k, cols, rng),
		a:    testRandDense(rows, k, rng),
		base: testRandDense(rows, k, rng),
	}
}

// TestCSRKernelsMatchCSCBitwise pins the block format's contract: each CSR
// kernel reproduces the CSC kernel (or naive CSC loop) it replaced bit for
// bit, at every worker count, on ±0/NaN/±Inf operands, empty rows and
// columns, and duplicate triplets.
func TestCSRKernelsMatchCSCBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	names := [4]string{"MultVec", "TransMultVec", "AccumSparseMultDenseT", "AccumTransDenseSparse"}
	defer par.SetWorkers(0)
	for _, c := range []sparseCase{sparseSpecialsCase(rng), sparseChunkedCase(rng)} {
		par.SetWorkers(1)
		want := cscReference(c)
		for _, w := range []int{1, 2, 4} {
			par.SetWorkers(w)
			got := csrRun(c)
			for k := range got {
				if !bitEqual(got[k], want[k]) {
					t.Errorf("%s: CSR %s at workers=%d differs bitwise from CSC", c.name, names[k], w)
				}
			}
		}
	}
}

// TestSparseKernelsObserved: with a registry wired, every SparseCSR
// MultVec and TransMultVec call lands exactly one observation in its
// histogram.
func TestSparseKernelsObserved(t *testing.T) {
	reg := obs.NewRegistry()
	SetObs(reg)
	defer SetObs(nil)
	s := testRandSparse(40, 30, 3, rand.New(rand.NewSource(16))).ToCSR()
	y, z := NewVector(40), NewVector(30)
	for i := 0; i < 3; i++ {
		s.MultVec(NewVector(30).Fill(1), y)
	}
	for i := 0; i < 2; i++ {
		s.TransMultVec(NewVector(40).Fill(1), z)
	}
	if got := reg.Histogram("la.kernel.spmv").Count(); got != 3 {
		t.Errorf("la.kernel.spmv count = %d, want 3", got)
	}
	if got := reg.Histogram("la.kernel.tspmv").Count(); got != 2 {
		t.Errorf("la.kernel.tspmv count = %d, want 2", got)
	}
}
