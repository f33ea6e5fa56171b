package codec

import (
	"fmt"
	"testing"
)

// benchN is the payload length used by the codec benchmarks: 64k words
// (512 KiB) approximates one 256x256 dense block column set and is large
// enough that per-call overhead vanishes behind the copy loop.
const benchN = 1 << 16

func benchFloats() []float64 {
	vs := make([]float64, benchN)
	for i := range vs {
		vs[i] = float64(i) * 1.5
	}
	return vs
}

func benchInts() []int {
	vs := make([]int, benchN)
	for i := range vs {
		vs[i] = i * 3
	}
	return vs
}

func BenchmarkCodecEncode(b *testing.B) {
	fs := benchFloats()
	is := benchInts()
	b.Run(fmt.Sprintf("float64s-%d", benchN), func(b *testing.B) {
		buf := make([]byte, 0, 8+8*benchN)
		b.SetBytes(8 * benchN)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendFloat64s(buf[:0], fs)
		}
	})
	b.Run(fmt.Sprintf("ints-%d", benchN), func(b *testing.B) {
		buf := make([]byte, 0, 8+8*benchN)
		b.SetBytes(8 * benchN)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendInts(buf[:0], is)
		}
	})
}

func BenchmarkCodecDecode(b *testing.B) {
	encF := AppendFloat64s(nil, benchFloats())
	encI := AppendInts(nil, benchInts())
	b.Run(fmt.Sprintf("float64s-%d", benchN), func(b *testing.B) {
		b.SetBytes(8 * benchN)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := Float64s(encF); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("ints-%d", benchN), func(b *testing.B) {
		b.SetBytes(8 * benchN)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := Ints(encI); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSurvivorCheck compares two ways of getting the length and
// CRC-32C of a 5000x128 block payload's encoding: encoding it into a
// pooled buffer (the survivor check before checksum-only mode), and
// checksum-only mode, over the slice's memory and through the scratch
// chunk a big-endian host would use.
func BenchmarkSurvivorCheck(b *testing.B) {
	vs := make([]float64, 5000*128)
	for i := range vs {
		vs[i] = float64(i) / 3
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(8 * len(vs)))
		for i := 0; i < b.N; i++ {
			e := NewEncoder(SizeFloat64s(len(vs)))
			e.PutFloat64s(vs)
			PutBuffer(e.Bytes())
		}
	})
	for _, inPlace := range []bool{true, false} {
		b.Run(fmt.Sprintf("checksum-inplace=%v", inPlace), func(b *testing.B) {
			defer func(v bool) { sumInPlace = v }(sumInPlace)
			sumInPlace = inPlace
			b.SetBytes(int64(8 * len(vs)))
			for i := 0; i < b.N; i++ {
				e := NewChecksummer()
				e.PutFloat64s(vs)
			}
		})
	}
}
