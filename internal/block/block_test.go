package block

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/grid"
	"github.com/rgml/rgml/internal/la"
)

func testGrid(t *testing.T) *grid.Grid {
	t.Helper()
	g, err := grid.New(10, 8, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewBlocksGeometry(t *testing.T) {
	g := testGrid(t)
	d := NewDenseBlock(g, 1, 1)
	// Rows split 4,3,3; cols split 4,4. Block (1,1): 3x4 at (4,4).
	if d.Rows != 3 || d.Cols != 4 || d.Row0 != 4 || d.Col0 != 4 {
		t.Fatalf("dense block geometry: %v", d)
	}
	if d.Kind() != Dense || d.Dense == nil || d.Sparse != nil {
		t.Error("dense block kind wrong")
	}
	s := NewSparseBlock(g, 2, 0)
	if s.Rows != 3 || s.Cols != 4 || s.Row0 != 7 || s.Col0 != 0 {
		t.Fatalf("sparse block geometry: %v", s)
	}
	if s.Kind() != Sparse {
		t.Error("sparse block kind wrong")
	}
}

func TestKindString(t *testing.T) {
	if Dense.String() != "dense" || Sparse.String() != "sparse" {
		t.Error("Kind.String wrong")
	}
	if !strings.HasPrefix(Kind(9).String(), "Kind(") {
		t.Error("unknown kind string")
	}
}

func TestBlockCloneIndependent(t *testing.T) {
	g := testGrid(t)
	d := NewDenseBlock(g, 0, 0)
	d.Dense.Set(0, 0, 5)
	c := d.Clone()
	c.Dense.Set(0, 0, 9)
	if d.Dense.At(0, 0) != 5 {
		t.Error("dense clone shares storage")
	}
	s := NewSparseBlock(g, 0, 0)
	s.Sparse = la.NewSparseCSRFromTriplets(4, 4, []la.Triplet{{Row: 1, Col: 1, Val: 3}})
	cs := s.Clone()
	cs.Sparse.Vals[0] = 7
	if s.Sparse.Vals[0] != 3 {
		t.Error("sparse clone shares storage")
	}
}

// TestMultVecAssign checks that MultVecAssign overwrites dst with the
// block's product over its own columns of x: stale contents of dst do not
// leak into the result, and a second call gives the same bits rather than
// twice them.
func TestMultVecAssign(t *testing.T) {
	g := testGrid(t)
	rng := la.NewRNG(1)
	b := NewDenseBlock(g, 1, 1)
	copy(b.Dense.Data, la.RandomDense(3, 4, rng).Data)

	x := la.RandomVector(8, rng)
	want := la.NewVector(3)
	b.Dense.MultVec(x[4:8], want)
	dst := la.Vector{7, -7, 7}
	b.MultVecAssign(x[b.Col0:b.Col0+b.Cols], dst)
	if !dst.EqualApprox(want, 0) {
		t.Errorf("MultVecAssign = %v, want %v", dst, want)
	}
	b.MultVecAssign(x[b.Col0:b.Col0+b.Cols], dst)
	if !dst.EqualApprox(want, 0) {
		t.Errorf("second MultVecAssign = %v, want %v (it must not accumulate)", dst, want)
	}
}

// TestTransMultVecAssign is TestMultVecAssign for Bᵀ·x over a sparse
// block: dst gets exactly the block's columns, overwritten.
func TestTransMultVecAssign(t *testing.T) {
	g := testGrid(t)
	rng := la.NewRNG(2)
	b := NewSparseBlock(g, 1, 0)
	b.Sparse = la.RandomSparseCSC(3, 4, 2, rng).ToCSR()

	x := la.RandomVector(10, rng)
	want := la.NewVector(4)
	b.Sparse.TransMultVec(x[4:7], want)
	dst := la.Vector{9, 9, 9, 9}
	b.TransMultVecAssign(x[b.Row0:b.Row0+b.Rows], dst)
	if !dst.EqualApprox(want, 0) {
		t.Errorf("TransMultVecAssign = %v, want %v", dst, want)
	}
	b.TransMultVecAssign(x[b.Row0:b.Row0+b.Rows], dst)
	if !dst.EqualApprox(want, 0) {
		t.Errorf("second TransMultVecAssign = %v, want %v (it must not accumulate)", dst, want)
	}
}

func TestBlockScale(t *testing.T) {
	g := testGrid(t)
	d := NewDenseBlock(g, 0, 0)
	d.Dense.Set(1, 1, 2)
	d.Scale(3)
	if d.Dense.At(1, 1) != 6 {
		t.Error("dense Scale failed")
	}
}

func TestEncodeDecodeDense(t *testing.T) {
	g := testGrid(t)
	rng := la.NewRNG(3)
	b := NewDenseBlock(g, 2, 1)
	copy(b.Dense.Data, la.RandomDense(b.Rows, b.Cols, rng).Data)
	got, err := Decode(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.RB != b.RB || got.CB != b.CB || got.Row0 != b.Row0 || got.Col0 != b.Col0 {
		t.Fatal("header mismatch")
	}
	if !got.Dense.EqualApprox(b.Dense, 0) {
		t.Fatal("payload mismatch")
	}
}

func TestEncodeDecodeSparse(t *testing.T) {
	g := testGrid(t)
	rng := la.NewRNG(4)
	b := NewSparseBlock(g, 0, 1)
	b.Sparse = la.RandomSparseCSC(b.Rows, b.Cols, 2, rng).ToCSR()
	got, err := Decode(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != Sparse || !sameCSR(got.Sparse, b.Sparse) {
		t.Fatal("sparse roundtrip mismatch")
	}
}

// sameCSR reports whether a and b hold identical CSR arrays, values
// compared by bit pattern.
func sameCSR(a, b *la.SparseCSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !slices.Equal(a.RowPtr, b.RowPtr) ||
		!slices.Equal(a.ColIdx, b.ColIdx) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for k := range a.Vals {
		if math.Float64bits(a.Vals[k]) != math.Float64bits(b.Vals[k]) {
			return false
		}
	}
	return true
}

// csrSpecials is a 3×4 CSR payload with an empty row and column, ±0 and
// non-finite values.
func csrSpecials() *la.SparseCSR {
	return la.NewSparseCSRFromTriplets(3, 4, []la.Triplet{
		{Row: 0, Col: 0, Val: math.Copysign(0, -1)},
		{Row: 0, Col: 3, Val: math.Inf(-1)},
		{Row: 2, Col: 1, Val: math.NaN()},
		{Row: 2, Col: 3, Val: 0.1},
		{Row: 2, Col: 3, Val: 0.2},
	})
}

// Property: the CSR payload survives Encode/Decode and DecodeInto bit for
// bit — array for array, including the row pointers of empty rows — and
// DecodeInto reuses the destination's storage when it is large enough.
func TestEncodeDecodeSparseCSR(t *testing.T) {
	g := testGrid(t)
	b := NewSparseBlock(g, 2, 0) // 3x4
	b.Sparse = csrSpecials()
	enc := b.Encode()
	if len(enc) != b.EncodedSize() {
		t.Fatalf("EncodedSize %d, encoded %d bytes", b.EncodedSize(), len(enc))
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCSR(got.Sparse, b.Sparse) || got.Row0 != b.Row0 || got.Col0 != b.Col0 {
		t.Fatalf("Decode: %+v, want %+v", got.Sparse, b.Sparse)
	}

	dst := NewSparseBlock(g, 2, 0)
	dst.Sparse.ColIdx = make([]int, 0, 8)
	dst.Sparse.Vals = make([]float64, 0, 8)
	storage := &dst.Sparse.Vals[:1][0]
	ver := dst.Ver
	if err := DecodeInto(dst, enc); err != nil {
		t.Fatal(err)
	}
	if !sameCSR(dst.Sparse, b.Sparse) || dst.Ver == ver {
		t.Fatalf("DecodeInto: %+v (ver %d), want %+v", dst.Sparse, dst.Ver, b.Sparse)
	}
	if &dst.Sparse.Vals[0] != storage {
		t.Error("DecodeInto reallocated values that fit the destination")
	}

	// A row-pointer array sized for the columns, not the rows, is the CSC
	// layout: rejected, not misread.
	csc := b.Sparse.ToCSC()
	bad := &MatrixBlock{RB: b.RB, Rows: b.Rows, Cols: b.Cols,
		Sparse: &la.SparseCSR{Rows: b.Rows, Cols: b.Cols, RowPtr: csc.ColPtr, ColIdx: csc.RowIdx, Vals: csc.Vals}}
	if _, err := Decode(bad.Encode()); err == nil {
		t.Error("Decode accepted a cols+1 pointer array")
	}
}

// Property: encode/decode is the identity for random dense blocks.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := la.NewRNG(seed)
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(8)
		g, err := grid.New(rows*2, cols*2, 2, 2)
		if err != nil {
			return true
		}
		b := NewDenseBlock(g, rng.Intn(2), rng.Intn(2))
		for i := range b.Dense.Data {
			b.Dense.Data[i] = rng.Float64()
		}
		got, err := Decode(b.Encode())
		return err == nil && got.Dense.EqualApprox(b.Dense, 0) && got.Bytes() == b.Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("empty decode should fail")
	}
	g := testGrid(t)
	b := NewDenseBlock(g, 0, 0)
	enc := b.Encode()
	if _, err := Decode(enc[:len(enc)-4]); err == nil {
		t.Error("truncated decode should fail")
	}
	// Corrupt the kind field.
	bad := append([]byte(nil), enc...)
	bad[0] = 99
	if _, err := Decode(bad); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestBlockSetOrderAndFind(t *testing.T) {
	g := testGrid(t)
	s := NewBlockSet()
	for _, id := range []int{4, 1, 3} {
		rb, cb := g.BlockCoords(id)
		s.Add(id, NewDenseBlock(g, rb, cb))
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	ids := s.IDs()
	if ids[0] != 1 || ids[1] != 3 || ids[2] != 4 {
		t.Fatalf("IDs = %v", ids)
	}
	if s.Find(3) == nil || s.Find(2) != nil {
		t.Error("Find wrong")
	}
	var seen []int
	s.Each(func(id int, b *MatrixBlock) { seen = append(seen, id) })
	if len(seen) != 3 || seen[0] != 1 || seen[2] != 4 {
		t.Errorf("Each order = %v", seen)
	}
}

func TestBlockSetDuplicatePanics(t *testing.T) {
	g := testGrid(t)
	s := NewBlockSet()
	s.Add(1, NewDenseBlock(g, 0, 0))
	defer func() {
		if recover() == nil {
			t.Error("duplicate Add should panic")
		}
	}()
	s.Add(1, NewDenseBlock(g, 0, 0))
}

func TestBlockSetCloneAndBytes(t *testing.T) {
	g := testGrid(t)
	s := NewBlockSet()
	s.Add(0, NewDenseBlock(g, 0, 0))
	s.Add(5, NewSparseBlock(g, 2, 1))
	c := s.Clone()
	c.Find(0).Dense.Set(0, 0, 9)
	if s.Find(0).Dense.At(0, 0) != 0 {
		t.Error("Clone shares storage")
	}
	if s.Bytes() != s.Find(0).Bytes()+s.Find(5).Bytes() {
		t.Error("Bytes wrong")
	}
}

// TestChecksumOnlyMatchesEncode pins the survivor check's checksum-only
// pass (codec.NewChecksummer through EncodeInto) to the real encoding of
// dense and CSR blocks: the same length and the same CRC-32C, for an
// empty, a one-word, three chunk-boundary and a 5000x128 payload.
func TestChecksumOnlyMatchesEncode(t *testing.T) {
	const chunkWords = 64 << 10 / 8
	for _, n := range []int{0, 1, chunkWords - 1, chunkWords, chunkWords + 1, 5000 * 128} {
		data := make([]float64, n)
		rowPtr := make([]int, n+1)
		colIdx := make([]int, n)
		for i := range data {
			data[i] = math.Sin(float64(i)) + float64(i)
			rowPtr[i+1] = i + 1
			colIdx[i] = i % 3
		}
		dense := &MatrixBlock{Rows: 1, Cols: n, Row0: 2, Col0: 5, Dense: la.NewDenseFrom(1, n, data)}
		sparse := &MatrixBlock{RB: 1, CB: 2, Rows: n, Cols: 3,
			Sparse: &la.SparseCSR{Rows: n, Cols: 3, RowPtr: rowPtr, ColIdx: colIdx, Vals: data}}
		for _, b := range []*MatrixBlock{dense, sparse} {
			want := b.Encode()
			e := codec.NewChecksummer()
			b.EncodeInto(&e)
			if e.Len() != len(want) || e.Sum() != codec.Checksum(want) || e.Len() != b.EncodedSize() {
				t.Fatalf("%v block, %d-word payload: checksum-only (len %d, CRC %#x), encode (len %d, CRC %#x)",
					b.Kind(), n, e.Len(), e.Sum(), len(want), codec.Checksum(want))
			}
		}
	}
}
