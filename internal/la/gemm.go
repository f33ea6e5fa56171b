package la

import (
	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/par"
)

// Mixed dense/sparse accumulation kernels used by the distributed
// matrix-matrix operations (the GNMF factorization needs AᵀB, AᵀA, S·Bᵀ
// products between the sparse data matrix and the dense factors). All
// three run on the deterministic kernel engine (internal/par): the
// parallel decomposition assigns every output element to exactly one
// chunk, and each element's accumulation order is fixed by the operand
// shapes, so results are bit-identical at any worker count.

// AccumTransDenseSparse computes out += aᵀ·s, where a is rows×k dense and
// s is rows×m sparse; out is k×m and must be pre-allocated.
//
// The nonzeros of one sparse row scatter into arbitrary output columns,
// so the parallel decomposition is by output-column range: each chunk
// scans every row but binary-searches the (sorted) column indices for its
// own column sub-range. Every output element sees exactly the naive
// column-major loop's accumulation order — ascending row — so the kernel
// is bit-identical to the serial reference over the CSC form.
func AccumTransDenseSparse(a *DenseMatrix, s *SparseCSR, out *DenseMatrix) {
	checkDim(a.Rows == s.Rows, "AccumTransDenseSparse: a rows %d != s rows %d", a.Rows, s.Rows)
	checkDim(out.Rows == a.Cols && out.Cols == s.Cols,
		"AccumTransDenseSparse: out %dx%d, want %dx%d", out.Rows, out.Cols, a.Cols, s.Cols)
	t0 := kstart()
	k := a.Cols
	par.For(s.Cols, spColRangeGrain, func(lo, hi int) {
		full := lo == 0 && hi == s.Cols
		for i := 0; i < s.Rows; i++ {
			ps, pe := s.colRange(i, lo, hi, full)
			for p := ps; p < pe; p++ {
				j, v := s.ColIdx[p], s.Vals[p]
				outCol := out.Data[j*k : (j+1)*k]
				// out[:, j] += v · a[i, :]ᵀ (a is column-major: stride a.Rows).
				for kk := range outCol {
					outCol[kk] += v * a.Data[i+kk*a.Rows]
				}
			}
		}
	})
	kdone(func(ki *kinstr) *obs.Histogram { return ki.tds }, t0)
}

// AccumSparseMultDenseT computes out += s·hᵀ, where s is rows×m sparse and
// h is k×m dense; out is rows×k and must be pre-allocated. Parallel over
// sparse rows: row i owns out[i, :], and each element accumulates in
// ascending column order, exactly the naive loop's — so the kernel is
// bit-identical to the serial reference at any worker count.
func AccumSparseMultDenseT(s *SparseCSR, h *DenseMatrix, out *DenseMatrix) {
	checkDim(h.Cols == s.Cols, "AccumSparseMultDenseT: h cols %d != s cols %d", h.Cols, s.Cols)
	checkDim(out.Rows == s.Rows && out.Cols == h.Rows,
		"AccumSparseMultDenseT: out %dx%d, want %dx%d", out.Rows, out.Cols, s.Rows, h.Rows)
	t0 := kstart()
	k := h.Rows
	par.For(s.Rows, spRowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
				j, v := s.ColIdx[p], s.Vals[p]
				hCol := h.Data[j*k : (j+1)*k] // h[:, j], contiguous
				// out[i, :] += v · h[:, j]ᵀ (out is column-major: stride out.Rows).
				for kk, hv := range hCol {
					out.Data[i+kk*out.Rows] += v * hv
				}
			}
		}
	})
	kdone(func(ki *kinstr) *obs.Histogram { return ki.sdt }, t0)
}

// AccumTransDenseDense computes out += aᵀ·b for dense a (rows×k) and b
// (rows×m); out is k×m and must be pre-allocated. With b == a this is the
// Gram matrix AᵀA. Parallel over output columns; each entry is a dot4
// product whose fold order is fixed by the row count.
func AccumTransDenseDense(a, b *DenseMatrix, out *DenseMatrix) {
	checkDim(a.Rows == b.Rows, "AccumTransDenseDense: a rows %d != b rows %d", a.Rows, b.Rows)
	checkDim(out.Rows == a.Cols && out.Cols == b.Cols,
		"AccumTransDenseDense: out %dx%d, want %dx%d", out.Rows, out.Cols, a.Cols, b.Cols)
	t0 := kstart()
	par.For(b.Cols, gramColGrain, func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			bCol := b.Data[j*b.Rows : (j+1)*b.Rows]
			outCol := out.Data[j*out.Rows : (j+1)*out.Rows]
			for kk := 0; kk < a.Cols; kk++ {
				outCol[kk] += dot4(a.Data[kk*a.Rows:(kk+1)*a.Rows], bCol)
			}
		}
	})
	kdone(func(ki *kinstr) *obs.Histogram { return ki.gram }, t0)
}
