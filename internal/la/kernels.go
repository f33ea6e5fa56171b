package la

import (
	"sync/atomic"
	"time"

	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/par"
)

// Kernel scheduling parameters. Grains are part of the determinism
// contract (see internal/par): chunk boundaries — and therefore any
// per-chunk accumulator state — are functions of these constants and the
// problem size only, never of the worker count. Changing a grain changes
// which problem sizes run in parallel, not the results.
const (
	// vecGrain chunks element-wise vector ops (disjoint writes).
	vecGrain = 8192
	// dotGrain chunks the dot/sum reductions; partials are folded in
	// ascending chunk order by par.Reduce.
	dotGrain = 8192
	// gemvRowGrain chunks MultVec output rows.
	gemvRowGrain = 512
	// tmvColGrain chunks TransMultVec output columns.
	tmvColGrain = 16
	// gemmColGrain chunks Mult output columns. It is a multiple of 4 so
	// the 4-wide register blocking stays globally aligned no matter how
	// chunks are executed.
	gemmColGrain = 32
	// gemmRowTile is the output-row strip height of the GEMM cache
	// tiling: a 4-column strip of C (gemmRowTile×4×8 B) stays resident
	// in L1 across the full k loop while the matching strip of A streams
	// from L2.
	gemmRowTile = 256
	// gramColGrain chunks AccumTransDenseDense output columns.
	gramColGrain = 8
	// spRowGrain chunks the row-parallel CSR kernels (SparseCSR.MultVec,
	// AccumSparseMultDenseT) by output rows. Each row is an independent
	// gather with no per-chunk setup, so the grain only has to amortize
	// the pool's per-chunk cost over a few nonzeros per row.
	spRowGrain = 4096
	// spColRangeGrain chunks the column-range CSR kernels
	// (SparseCSR.TransMultVec, AccumTransDenseSparse) by output columns.
	// Every chunk walks every row and binary-searches its column range,
	// so the per-chunk cost has a fixed component proportional to the row
	// count; the grain must be large enough that this overhead stays small
	// next to the O(nnz/chunk) useful work even for matrices with only a
	// handful of nonzeros per row.
	spColRangeGrain = 32768
	// cscColGrain and cscRowGrain chunk the library SparseCSC kernels:
	// TransMultVec by owned output columns, MultVec by binary-searched
	// output-row ranges (spColRangeGrain's trade, transposed).
	cscColGrain = 64
	cscRowGrain = 32768
)

// dot4 is the shared 4-accumulator dot product. The unroll structure is
// fixed, so the summation order is a function of the slice length only.
func dot4(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return ((s0 + s1) + s2) + s3
}

// sum4 is the 4-accumulator sum with the same fixed fold order as dot4.
func sum4(a []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i]
		s1 += a[i+1]
		s2 += a[i+2]
		s3 += a[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i]
	}
	return ((s0 + s1) + s2) + s3
}

// sumSquares4 is the 4-accumulator sum of squares (Frobenius norms).
func sumSquares4(a []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * a[i]
		s1 += a[i+1] * a[i+1]
		s2 += a[i+2] * a[i+2]
		s3 += a[i+3] * a[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * a[i]
	}
	return ((s0 + s1) + s2) + s3
}

// SumSquares returns the sum of squared elements of xs with the engine's
// deterministic chunked reduction (exported for the distributed
// Frobenius-norm partials).
func SumSquares(xs []float64) float64 {
	return par.Reduce(len(xs), dotGrain,
		func(lo, hi int) float64 { return sumSquares4(xs[lo:hi]) },
		func(a, b float64) float64 { return a + b })
}

// kinstr holds the per-kernel observability handles (µs histograms and
// tile counters), resolved once per SetObs; hot paths pay one atomic
// pointer load, and zero timing work when no registry is wired.
type kinstr struct {
	gemm  *obs.Histogram // la.kernel.gemm
	gemv  *obs.Histogram // la.kernel.gemv
	tgemv *obs.Histogram // la.kernel.tgemv
	gram  *obs.Histogram // la.kernel.gram
	tds   *obs.Histogram // la.kernel.accum_tds
	sdt   *obs.Histogram // la.kernel.accum_sdt
	spmv  *obs.Histogram // la.kernel.spmv
	tspmv *obs.Histogram // la.kernel.tspmv
	tiles *obs.Counter   // la.gemm.tiles
}

var kins atomic.Pointer[kinstr]

// SetObs wires the kernel instrumentation into reg: one duration
// histogram per hot kernel (la.kernel.gemm, .gemv, .tgemv, .gram,
// .accum_tds, .accum_sdt, and .spmv/.tspmv for SparseCSR.MultVec and
// TransMultVec) and the GEMM micro-tile counter
// (la.gemm.tiles). The kernels are package-level, so the last registry
// wired wins; nil disables instrumentation.
func SetObs(reg *obs.Registry) {
	if reg == nil {
		kins.Store(nil)
		return
	}
	kins.Store(&kinstr{
		gemm:  reg.Histogram("la.kernel.gemm"),
		gemv:  reg.Histogram("la.kernel.gemv"),
		tgemv: reg.Histogram("la.kernel.tgemv"),
		gram:  reg.Histogram("la.kernel.gram"),
		tds:   reg.Histogram("la.kernel.accum_tds"),
		sdt:   reg.Histogram("la.kernel.accum_sdt"),
		spmv:  reg.Histogram("la.kernel.spmv"),
		tspmv: reg.Histogram("la.kernel.tspmv"),
		tiles: reg.Counter("la.gemm.tiles"),
	})
}

// kstart returns the kernel start time, or the zero time when
// uninstrumented (so the hot path skips the clock read entirely).
func kstart() time.Time {
	if kins.Load() == nil {
		return time.Time{}
	}
	return time.Now()
}

// kdone records the kernel duration into the selected histogram.
func kdone(sel func(*kinstr) *obs.Histogram, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	if ki := kins.Load(); ki != nil {
		sel(ki).Observe(time.Since(t0))
	}
}

// addTiles accumulates the GEMM micro-tile counter.
func addTiles(n int64) {
	if ki := kins.Load(); ki != nil {
		ki.tiles.Add(n)
	}
}
