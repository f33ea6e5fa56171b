package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// referenceFloat64s is the element-wise encoding the bulk path replaced: a
// length header followed by one little-endian PutUint64 per value. The wire
// format is defined by this loop; AppendFloat64s must match it byte for
// byte on every host.
func referenceFloat64s(b []byte, vs []float64) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(len(vs))))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func referenceInts(b []byte, vs []int) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(len(vs))))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
	}
	return b
}

// floatCases covers the unroll boundaries (0..5, 7..9) and a large slice,
// with payloads exercising every special float encoding.
func floatCases() [][]float64 {
	specials := []float64{0, math.Copysign(0, -1), 1, -1, math.Pi,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64,
		math.SmallestNonzeroFloat64, 1e-300}
	lens := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 1000}
	cases := make([][]float64, 0, len(lens))
	for _, n := range lens {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = specials[i%len(specials)] * float64(1+i/len(specials))
		}
		cases = append(cases, vs)
	}
	return cases
}

func intCases() [][]int {
	specials := []int{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 40, -(1 << 40)}
	lens := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 1000}
	cases := make([][]int, 0, len(lens))
	for _, n := range lens {
		vs := make([]int, n)
		for i := range vs {
			vs[i] = specials[i%len(specials)] + i
		}
		cases = append(cases, vs)
	}
	return cases
}

// TestBulkFloat64sByteIdentical pins the bulk encode path (memmove on
// little-endian hosts, unrolled loop elsewhere) to the element-wise
// reference, and checks the decoder inverts it exactly.
func TestBulkFloat64sByteIdentical(t *testing.T) {
	for _, vs := range floatCases() {
		want := referenceFloat64s(nil, vs)
		got := AppendFloat64s(nil, vs)
		if !bytes.Equal(got, want) {
			t.Fatalf("len=%d: bulk encoding differs from element-wise reference", len(vs))
		}
		// Appending after existing bytes must not disturb the prefix.
		prefix := []byte{0xde, 0xad}
		got2 := AppendFloat64s(append([]byte(nil), prefix...), vs)
		if !bytes.Equal(got2, append(append([]byte(nil), prefix...), want...)) {
			t.Fatalf("len=%d: bulk encoding with prefix differs", len(vs))
		}
		dec, rest, err := Float64s(got)
		if err != nil {
			t.Fatalf("len=%d: decode: %v", len(vs), err)
		}
		if len(rest) != 0 || len(dec) != len(vs) {
			t.Fatalf("len=%d: decode consumed wrong amount", len(vs))
		}
		for i := range vs {
			if math.Float64bits(dec[i]) != math.Float64bits(vs[i]) {
				t.Fatalf("len=%d: value %d: got %x want %x", len(vs), i,
					math.Float64bits(dec[i]), math.Float64bits(vs[i]))
			}
		}
	}
}

func TestBulkIntsByteIdentical(t *testing.T) {
	for _, vs := range intCases() {
		want := referenceInts(nil, vs)
		got := AppendInts(nil, vs)
		if !bytes.Equal(got, want) {
			t.Fatalf("len=%d: bulk encoding differs from element-wise reference", len(vs))
		}
		dec, rest, err := Ints(got)
		if err != nil {
			t.Fatalf("len=%d: decode: %v", len(vs), err)
		}
		if len(rest) != 0 {
			t.Fatalf("len=%d: decode left %d bytes", len(vs), len(rest))
		}
		for i := range vs {
			if dec[i] != vs[i] {
				t.Fatalf("len=%d: value %d: got %d want %d", len(vs), i, dec[i], vs[i])
			}
		}
	}
}

// TestEncoderMatchesAppend pins the Encoder (which folds CRC-32C into the
// encode pass) to the Append* functions: same bytes, and a running sum
// equal to a one-shot checksum of the final buffer.
func TestEncoderMatchesAppend(t *testing.T) {
	for _, vs := range floatCases() {
		var e Encoder
		e.PutInt(42)
		e.PutFloat64s(vs)
		e.PutInts([]int{7, -7})
		e.PutUint64(99)
		e.PutFloat64(math.Pi)

		want := AppendInt(nil, 42)
		want = AppendFloat64s(want, vs)
		want = AppendInts(want, []int{7, -7})
		want = AppendUint64(want, 99)
		want = AppendFloat64(want, math.Pi)

		if !bytes.Equal(e.Bytes(), want) {
			t.Fatalf("len=%d: Encoder bytes differ from Append* bytes", len(vs))
		}
		if e.Len() != len(want) {
			t.Fatalf("len=%d: Encoder.Len()=%d want %d", len(vs), e.Len(), len(want))
		}
		if e.Sum() != Checksum(want) {
			t.Fatalf("len=%d: incremental CRC %#x != one-shot CRC %#x",
				len(vs), e.Sum(), Checksum(want))
		}
	}
}

// TestEncoderChunkBoundaries pins the chunked bulk puts to the Append*
// functions around every chunk boundary, at a 5000x128 block and past the
// runtime's 1 MiB non-temporal copy threshold, each after a short prefix
// and with and without a lossless Compressor: same bytes, and a running
// sum equal to a one-shot checksum of the whole buffer. A length just past
// a boundary leaves a one-word last chunk, so a loop that skipped the CRC
// of a partial chunk fails here.
func TestEncoderChunkBoundaries(t *testing.T) {
	const words = bulkChunk / 8
	lossless, err := NewCompressor(Spec{Mode: CompressLossless})
	if err != nil {
		t.Fatal(err)
	}
	prefix := func(e *Encoder) {
		e.PutInt(42)
		e.PutFloat64(math.Pi)
	}
	want := AppendFloat64(AppendInt(nil, 42), math.Pi)
	lens := []int{0, 1, words - 1, words, words + 1, 5000 * 128, 1<<20/8 + 3}
	for _, comp := range []Compressor{nil, lossless} {
		for _, n := range lens {
			fs := make([]float64, n)
			is := make([]int, n)
			for i := range fs {
				fs[i] = math.Sin(float64(i)) * 1e3
				is[i] = i*i - 7*i
			}
			check := func(kind string, e *Encoder, want []byte) {
				t.Helper()
				if !bytes.Equal(e.Bytes(), want) {
					t.Fatalf("%s len=%d comp=%v: Encoder bytes differ from Append* bytes", kind, n, comp != nil)
				}
				if e.Sum() != Checksum(e.Bytes()) {
					t.Fatalf("%s len=%d comp=%v: running CRC %#x != one-shot CRC %#x",
						kind, n, comp != nil, e.Sum(), Checksum(e.Bytes()))
				}
			}

			wantF, wantI := AppendFloat64s(bytes.Clone(want), fs), AppendInts(bytes.Clone(want), is)
			if comp != nil {
				wantF, wantI = comp.AppendFloat64s(bytes.Clone(want), fs), comp.AppendInts(bytes.Clone(want), is)
			}

			ef := Encoder{comp: comp}
			prefix(&ef)
			ef.PutFloat64s(fs)
			check("float64s", &ef, wantF)

			ei := Encoder{comp: comp}
			prefix(&ei)
			ei.PutInts(is)
			check("ints", &ei, wantI)
		}
	}
}

// TestEncoderBulkPutAllocs pins the checkpoint steady state: encoding a
// 5000x128 block payload into a NewEncoder buffer allocates nothing.
func TestEncoderBulkPutAllocs(t *testing.T) {
	vs := make([]float64, 5000*128)
	e := NewEncoder(SizeFloat64s(len(vs)))
	buf := e.Bytes()
	allocs := testing.AllocsPerRun(10, func() {
		e = WrapEncoder(buf[:0])
		e.PutFloat64s(vs)
	})
	if allocs != 0 {
		t.Errorf("PutFloat64s of %d values into a pooled buffer: %.0f allocations, want 0", len(vs), allocs)
	}
}

// TestChecksummerMatchesEncoder pins checksum-only mode to a real encode
// through the same puts: the same Len and Sum, and no bytes kept. It runs
// every payload both ways a host can take — the CRC over the slice's own
// memory and the conversion through the scratch chunk that a big-endian
// or 32-bit host uses — with lengths around the chunk boundary, a
// one-word and an empty payload, and a 5000x128 block.
func TestChecksummerMatchesEncoder(t *testing.T) {
	const words = bulkChunk / 8
	defer func(v bool) { sumInPlace = v }(sumInPlace)
	for _, inPlace := range []bool{true, false} {
		sumInPlace = inPlace
		for _, n := range []int{0, 1, words - 1, words, words + 1, 5000 * 128} {
			fs := make([]float64, n)
			is := make([]int, n)
			for i := range fs {
				fs[i] = math.Cos(float64(i)) * 1e5
				is[i] = 3*i - i*i
			}
			puts := func(e *Encoder) {
				e.PutInt(n)
				e.PutFloat64(math.E)
				e.PutFloat64s(fs)
				e.PutUint64(1 << 63)
				e.PutInts(is)
			}
			var enc Encoder
			puts(&enc)
			sum := NewChecksummer()
			puts(&sum)
			if sum.Len() != enc.Len() || sum.Sum() != enc.Sum() {
				t.Fatalf("inPlace=%v n=%d: checksum-only (len %d, CRC %#x), encode (len %d, CRC %#x)",
					inPlace, n, sum.Len(), sum.Sum(), enc.Len(), enc.Sum())
			}
			if sum.Bytes() != nil {
				t.Fatalf("inPlace=%v n=%d: checksum-only mode kept %d bytes", inPlace, n, len(sum.Bytes()))
			}
			if !inPlace && cap(sum.buf) > bulkChunk {
				t.Fatalf("n=%d: chunked checksum scratch grew to %d bytes, want at most one %d-byte chunk", n, cap(sum.buf), bulkChunk)
			}
		}
	}
}

// TestChecksummerDrawsNoPoolBuffer pins that checksum-only mode never
// touches the buffer pool, and that over a 5000x128 payload it allocates
// nothing but its one-word scratch.
func TestChecksummerDrawsNoPoolBuffer(t *testing.T) {
	vs := make([]float64, 5000*128)
	gets, _, puts := PoolStats()
	allocs := testing.AllocsPerRun(10, func() {
		e := NewChecksummer()
		e.PutInt(len(vs))
		e.PutFloat64s(vs)
		if e.Len() != 8+SizeFloat64s(len(vs)) {
			t.Fatalf("Len %d", e.Len())
		}
	})
	if g, _, p := PoolStats(); g != gets || p != puts {
		t.Errorf("checksum-only puts drew %d and returned %d pool buffers, want none", g-gets, p-puts)
	}
	if allocs > 1 {
		t.Errorf("checksum-only puts of a %d-word payload: %.0f allocations, want at most 1", len(vs), allocs)
	}
}
