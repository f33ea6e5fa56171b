package block

import (
	"math"
	"testing"

	"github.com/rgml/rgml/internal/grid"
	"github.com/rgml/rgml/internal/la"
)

func fuzzSeedBlocks() []*MatrixBlock {
	g, err := grid.New(10, 8, 3, 2)
	if err != nil {
		panic(err)
	}
	d := NewDenseBlock(g, 1, 1)
	for i := range d.Dense.Data {
		d.Dense.Data[i] = float64(i) * 1.25
	}
	s := NewSparseBlock(g, 2, 0)
	s.Sparse = la.NewSparseCSRFromTriplets(3, 4, []la.Triplet{
		{Row: 0, Col: 0, Val: 1},
		{Row: 2, Col: 1, Val: -3.5},
		{Row: 1, Col: 3, Val: math.Pi},
	})
	return []*MatrixBlock{d, s}
}

// FuzzDecode feeds Decode truncated and corrupted wire images. Decode must
// never panic, and when it accepts an input the decoded block must survive
// a re-encode/re-decode round trip (the canonical-form property the
// restore paths rely on).
func FuzzDecode(f *testing.F) {
	for _, b := range fuzzSeedBlocks() {
		enc := b.Encode()
		f.Add(enc)
		f.Add(enc[:len(enc)/2]) // truncated payload
		f.Add(enc[:7])          // truncated header
		bad := append([]byte(nil), enc...)
		bad[0] = 0xff // unknown kind
		f.Add(bad)
		short := append([]byte(nil), enc...)
		short[56] = 0x7f // corrupt the payload length header
		f.Add(short)
	}
	f.Add([]byte{})
	// CSR payloads: special values with an empty row and column, an empty
	// block, and a pointer array one entry short.
	g, _ := grid.New(10, 8, 3, 2)
	sp := NewSparseBlock(g, 2, 0)
	sp.Sparse = csrSpecials()
	f.Add(sp.Encode())
	f.Add(NewSparseBlock(g, 0, 1).Encode())
	short := NewSparseBlock(g, 1, 1)
	short.Sparse.RowPtr = short.Sparse.RowPtr[:short.Rows]
	f.Add(short.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data)
		if err != nil {
			return
		}
		re := b.Encode()
		if len(re) != b.EncodedSize() {
			t.Fatalf("EncodedSize()=%d but Encode() emitted %d bytes", b.EncodedSize(), len(re))
		}
		b2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of accepted block failed: %v", err)
		}
		if b2.RB != b.RB || b2.CB != b.CB || b2.Row0 != b.Row0 || b2.Col0 != b.Col0 ||
			b2.Rows != b.Rows || b2.Cols != b.Cols || b2.Kind() != b.Kind() {
			t.Fatalf("round trip changed block header: %v vs %v", b, b2)
		}
	})
}

// TestDecodeTruncatedEveryPrefix runs Decode over every prefix of valid
// encodings: all must fail cleanly (no panic) except the full image.
func TestDecodeTruncatedEveryPrefix(t *testing.T) {
	for _, b := range fuzzSeedBlocks() {
		enc := b.Encode()
		for n := 0; n < len(enc); n++ {
			if _, err := Decode(enc[:n]); err == nil {
				t.Fatalf("%v: Decode accepted %d-byte prefix of %d-byte image", b, n, len(enc))
			}
		}
		if _, err := Decode(enc); err != nil {
			t.Fatalf("%v: Decode rejected full image: %v", b, err)
		}
	}
}
