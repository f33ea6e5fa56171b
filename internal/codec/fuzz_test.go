package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// Seed corpus helpers: valid encodings plus adversarial headers. The fuzz
// targets assert the decoders never panic and that a successful decode is
// exact: re-encoding the decoded values reproduces the consumed bytes
// byte-for-byte (the bulk paths must be lossless and canonical).

func FuzzFloat64s(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFloat64s(nil, nil))
	f.Add(AppendFloat64s(nil, []float64{1.5, -2.25, math.Pi}))
	f.Add(AppendFloat64s(nil, []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.NaN()}))
	// Truncated payload: header promises 3 values, buffer holds 1.
	f.Add(AppendFloat64s(nil, []float64{1, 2, 3})[:16])
	// Truncated header.
	f.Add(AppendInt(nil, 2)[:5])
	// Length header far past the buffer, and one crafted to overflow 8*n.
	f.Add(AppendInt(nil, 1<<40))
	f.Add(AppendInt(nil, math.MaxInt64/4))
	// Negative length.
	f.Add(AppendInt(nil, -1))
	f.Fuzz(func(t *testing.T, data []byte) {
		vs, rest, err := Float64s(data)
		if err != nil {
			return
		}
		consumed := len(data) - len(rest)
		if consumed != SizeFloat64s(len(vs)) {
			t.Fatalf("decoded %d values but consumed %d bytes", len(vs), consumed)
		}
		re := AppendFloat64s(nil, vs)
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encode of %d values is not byte-identical to input", len(vs))
		}
	})
}

func FuzzInts(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendInts(nil, nil))
	f.Add(AppendInts(nil, []int{0, 1, -1, math.MaxInt64, math.MinInt64}))
	f.Add(AppendInts(nil, []int{7, 8, 9})[:12])
	f.Add(AppendInt(nil, 1<<40))
	f.Add(AppendInt(nil, math.MaxInt64/4))
	f.Add(AppendInt(nil, -1))
	f.Fuzz(func(t *testing.T, data []byte) {
		vs, rest, err := Ints(data)
		if err != nil {
			return
		}
		consumed := len(data) - len(rest)
		if consumed != SizeInts(len(vs)) {
			t.Fatalf("decoded %d values but consumed %d bytes", len(vs), consumed)
		}
		re := AppendInts(nil, vs)
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encode of %d values is not byte-identical to input", len(vs))
		}
	})
}

// FuzzEncoder derives a prefix of up to three words and float and int
// payloads of nf and ni words (cycling through data's bytes) from the
// input and checks that the chunked Encoder emits exactly the bytes of the
// Append* functions, with a running sum equal to their one-shot Checksum.
// The uint16 lengths reach eight chunks, so every chunk-boundary offset is
// in range of the mutator. The same puts in checksum-only mode, over the
// slice's memory and through the scratch chunk, must give the same length
// and sum.
func FuzzEncoder(f *testing.F) {
	const words = bulkChunk / 8
	f.Add(uint8(0), uint16(0), uint16(0), []byte{})
	f.Add(uint8(1), uint16(3), uint16(2), AppendFloat64s(nil, []float64{1.5, math.NaN(), math.Inf(-1)}))
	f.Add(uint8(2), uint16(words-1), uint16(words), []byte{0xff, 0x00, 0x7f})
	f.Add(uint8(3), uint16(words+1), uint16(2*words+1), AppendInts(nil, []int{math.MinInt64, -1, 0}))
	f.Fuzz(func(t *testing.T, prefix uint8, nf, ni uint16, data []byte) {
		word := func(i int) uint64 {
			if len(data) == 0 {
				return uint64(i)
			}
			var w [8]byte
			for k := range w {
				w[k] = data[(8*i+k)%len(data)]
			}
			return binary.LittleEndian.Uint64(w[:]) ^ uint64(i)
		}
		fs := make([]float64, nf)
		for i := range fs {
			fs[i] = math.Float64frombits(word(i))
		}
		is := make([]int, ni)
		for i := range is {
			is[i] = int(int64(word(int(nf) + i)))
		}

		var e Encoder
		var want []byte
		for i := 0; i < int(prefix%4); i++ {
			e.PutUint64(word(i))
			want = AppendUint64(want, word(i))
		}
		e.PutFloat64s(fs)
		e.PutInts(is)
		want = AppendInts(AppendFloat64s(want, fs), is)
		if !bytes.Equal(e.Bytes(), want) {
			t.Fatalf("prefix=%d nf=%d ni=%d: Encoder bytes differ from Append* bytes", prefix%4, nf, ni)
		}
		if e.Sum() != Checksum(want) {
			t.Fatalf("prefix=%d nf=%d ni=%d: running CRC %#x != Checksum %#x", prefix%4, nf, ni, e.Sum(), Checksum(want))
		}

		// Checksum-only mode, both ways a host can take, must agree.
		defer func(v bool) { sumInPlace = v }(sumInPlace)
		for _, inPlace := range []bool{true, false} {
			sumInPlace = inPlace
			c := NewChecksummer()
			for i := 0; i < int(prefix%4); i++ {
				c.PutUint64(word(i))
			}
			c.PutFloat64s(fs)
			c.PutInts(is)
			if c.Len() != len(want) || c.Sum() != Checksum(want) {
				t.Fatalf("prefix=%d nf=%d ni=%d inPlace=%v: checksum-only (len %d, CRC %#x), want (%d, %#x)",
					prefix%4, nf, ni, inPlace, c.Len(), c.Sum(), len(want), Checksum(want))
			}
		}
	})
}
