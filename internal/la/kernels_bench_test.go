package la

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel benchmarks whose PR 4 numbers are frozen in
// results/BENCH_kernels.json; the gate on kernel speed is the la.* metrics
// of `bash benchmark/run.sh -micro`, not these. The sizes are chosen so
// the operands spill the L1/L2 caches, which is where the tiled kernels
// separate from the naive loops.

func randDense(rows, cols int, rng *rand.Rand) *DenseMatrix {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randVec(n int, rng *rand.Rand) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func randSparse(rows, cols, nnzPerCol int, rng *rand.Rand) *SparseCSC {
	var ts []Triplet
	for j := 0; j < cols; j++ {
		for k := 0; k < nnzPerCol; k++ {
			ts = append(ts, Triplet{Row: rng.Intn(rows), Col: j, Val: rng.NormFloat64()})
		}
	}
	return NewSparseCSCFromTriplets(rows, cols, ts)
}

func BenchmarkKernelGEMM(b *testing.B) {
	const m, k, n = 512, 512, 256
	rng := rand.New(rand.NewSource(1))
	a := randDense(m, k, rng)
	x := randDense(k, n, rng)
	c := NewDense(m, n)
	b.SetBytes(8 * int64(m*k+k*n+m*n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Mult(x, c)
	}
	b.ReportMetric(2*float64(m)*float64(k)*float64(n)/float64(b.Elapsed().Nanoseconds())*float64(b.N), "flops/ns")
}

func BenchmarkKernelGEMV(b *testing.B) {
	const rows, cols = 2048, 2048
	rng := rand.New(rand.NewSource(2))
	a := randDense(rows, cols, rng)
	x := randVec(cols, rng)
	y := NewVector(rows)
	b.SetBytes(8 * int64(rows*cols))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MultVec(x, y)
	}
}

func BenchmarkKernelTransGEMV(b *testing.B) {
	const rows, cols = 2048, 2048
	rng := rand.New(rand.NewSource(3))
	a := randDense(rows, cols, rng)
	x := randVec(rows, rng)
	y := NewVector(cols)
	b.SetBytes(8 * int64(rows*cols))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.TransMultVec(x, y)
	}
}

func BenchmarkKernelGram(b *testing.B) {
	const rows, k = 4096, 64
	rng := rand.New(rand.NewSource(4))
	a := randDense(rows, k, rng)
	out := NewDense(k, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Zero()
		AccumTransDenseDense(a, a, out)
	}
}

func BenchmarkKernelAccumSparseMultDenseT(b *testing.B) {
	const rows, cols, k, nnz = 8192, 8192, 8, 8
	rng := rand.New(rand.NewSource(5))
	s := randSparse(rows, cols, nnz, rng)
	h := randDense(k, cols, rng)
	out := NewDense(rows, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Zero()
		AccumSparseMultDenseT(s, h, out)
	}
}

func BenchmarkKernelDot(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(6))
	v, w := randVec(n, rng), randVec(n, rng)
	b.SetBytes(16 * n)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += v.Dot(w)
	}
	_ = fmt.Sprint(sink)
}
