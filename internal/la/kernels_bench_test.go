package la

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/rgml/rgml/internal/par"
)

// Kernel benchmarks whose PR 4 numbers are frozen in
// results/BENCH_kernels.json; the gate on kernel speed is the la.* metrics
// of `bash benchmark/run.sh -micro`, not these. The dense sizes are chosen
// so the operands spill the L1/L2 caches, which is where the tiled kernels
// separate from the naive loops. The sparse cases run the matrix blocks of
// the two PageRank benchmark workloads, in the block format (CSR), at one
// kernel worker: `go test -bench Sparse ./internal/la`.

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

// sparseBlockShapes are the row-stripe blocks of pagerank_fine_local and
// pagerank_recover_tcp: rows of a cols-node link matrix with links
// out-links per node.
var sparseBlockShapes = []struct {
	name              string
	rows, cols, links int
}{
	{"2000x16000", 2000, 16000, 8},
	{"30000x90000", 30000, 90000, 16},
}

// randSparse returns the first rows rows of a random cols-node link
// matrix: every column draws links targets from all cols nodes, and the
// stripe keeps the ones below rows (about links·rows/cols per column).
func randSparse(rows, cols, links int, rng *rand.Rand) *SparseCSR {
	var ts []Triplet
	for j := 0; j < cols; j++ {
		for k := 0; k < links; k++ {
			if i := rng.Intn(cols); i < rows {
				ts = append(ts, Triplet{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return NewSparseCSRFromTriplets(rows, cols, ts)
}

// oneWorker pins the kernel pool to one worker for the rest of b.
func oneWorker(b *testing.B) {
	par.SetWorkers(1)
	b.Cleanup(func() { par.SetWorkers(0) })
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

// BenchmarkKernelSparseMultVec times PageRank's block mat-vec in the
// block format (csr) against the same block as SparseCSC (csc).
func BenchmarkKernelSparseMultVec(b *testing.B) {
	for _, sh := range sparseBlockShapes {
		rng := rand.New(rand.NewSource(7))
		csr := randSparse(sh.rows, sh.cols, sh.links, rng)
		csc := csr.ToCSC()
		x, y := randVec(sh.cols, rng), NewVector(sh.rows)
		b.Run(sh.name+"/csr", func(b *testing.B) {
			oneWorker(b)
			for i := 0; i < b.N; i++ {
				csr.MultVec(x, y)
			}
		})
		b.Run(sh.name+"/csc", func(b *testing.B) {
			oneWorker(b)
			for i := 0; i < b.N; i++ {
				csc.MultVec(x, y)
			}
		})
	}
}

func BenchmarkKernelAccumSparseMultDenseT(b *testing.B) {
	const k = 8
	for _, sh := range sparseBlockShapes {
		rng := rand.New(rand.NewSource(5))
		s := randSparse(sh.rows, sh.cols, sh.links, rng)
		h := randDense(k, sh.cols, rng)
		out := NewDense(sh.rows, k)
		b.Run(sh.name, func(b *testing.B) {
			oneWorker(b)
			for i := 0; i < b.N; i++ {
				out.Zero()
				AccumSparseMultDenseT(s, h, out)
			}
		})
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
