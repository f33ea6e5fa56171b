package la

import (
	"fmt"
	"sort"

	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/par"
)

// SparseCSR is a compressed-sparse-row matrix, the counterpart of
// x10.matrix.sparse.SparseCSR. Row i's nonzeros occupy
// ColIdx[RowPtr[i]:RowPtr[i+1]] / Vals[RowPtr[i]:RowPtr[i+1]], with column
// indices sorted ascending within each row. It is the storage of every
// sparse matrix block: the row-striped mat-vec G·P is then one gather per
// output row, touching rows+1 pointers instead of a stripe's cols+1.
type SparseCSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Vals       []float64
}

// NewSparseCSR returns an empty rows×cols CSR matrix.
func NewSparseCSR(rows, cols int) *SparseCSR {
	checkDim(rows >= 0 && cols >= 0, "NewSparseCSR(%d, %d)", rows, cols)
	return &SparseCSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
}

// NewSparseCSRFromTriplets assembles a CSR matrix from coordinate entries.
// Duplicate (row, col) entries are summed through the CSC assembly, so a
// triplet list yields bit-identical values in either format.
func NewSparseCSRFromTriplets(rows, cols int, ts []Triplet) *SparseCSR {
	return NewSparseCSCFromTriplets(rows, cols, ts).ToCSR()
}

// NNZ returns the number of stored nonzeros.
func (m *SparseCSR) NNZ() int { return len(m.Vals) }

// At returns element (i, j) (zero when not stored).
func (m *SparseCSR) At(i, j int) float64 {
	checkDim(i >= 0 && i < m.Rows && j >= 0 && j < m.Cols, "At(%d, %d) out of %dx%d", i, j, m.Rows, m.Cols)
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := lo + sort.SearchInts(m.ColIdx[lo:hi], j)
	if k < hi && m.ColIdx[k] == j {
		return m.Vals[k]
	}
	return 0
}

// Clone returns an independent copy.
func (m *SparseCSR) Clone() *SparseCSR {
	return &SparseCSR{
		Rows: m.Rows, Cols: m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Vals:   append([]float64(nil), m.Vals...),
	}
}

// MultVec computes y = m · x. y has length m.Rows and is overwritten.
//
// Every output row is an independent gather, so rows split across the
// kernel pool with no search. Entries whose x[j] is zero are skipped, as
// SparseCSC.MultVec skips zero columns: each y[i] then sees the CSC
// scatter's additions in the same ascending-column order, and the two
// formats agree bit for bit (NaN and Inf included).
func (m *SparseCSR) MultVec(x, y Vector) {
	checkDim(len(x) == m.Cols, "MultVec: x len %d != cols %d", len(x), m.Cols)
	checkDim(len(y) == m.Rows, "MultVec: y len %d != rows %d", len(y), m.Rows)
	t0 := kstart()
	par.For(m.Rows, spRowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ps, pe := m.RowPtr[i], m.RowPtr[i+1]
			cols, vals := m.ColIdx[ps:pe], m.Vals[ps:pe]
			vals = vals[:len(cols)]
			var s float64
			for k, j := range cols {
				if xj := x[j]; xj != 0 {
					s += vals[k] * xj
				}
			}
			y[i] = s
		}
	})
	kdone(func(ki *kinstr) *obs.Histogram { return ki.spmv }, t0)
}

// TransMultVec computes y = mᵀ · x. y has length m.Cols and is overwritten.
//
// Rows scatter into arbitrary output columns, so the parallel
// decomposition is by output-column range: each chunk walks every row but
// binary-searches its sorted column indices for the chunk's own range.
// Every y[j] sees SparseCSC.TransMultVec's accumulation sequence —
// ascending row, nothing skipped — so the result is bit-identical to it.
func (m *SparseCSR) TransMultVec(x, y Vector) {
	checkDim(len(x) == m.Rows, "TransMultVec: x len %d != rows %d", len(x), m.Rows)
	checkDim(len(y) == m.Cols, "TransMultVec: y len %d != cols %d", len(y), m.Cols)
	t0 := kstart()
	par.For(m.Cols, spColRangeGrain, func(lo, hi int) {
		clear(y[lo:hi])
		full := lo == 0 && hi == m.Cols
		for i := 0; i < m.Rows; i++ {
			xi := x[i]
			ps, pe := m.colRange(i, lo, hi, full)
			for k := ps; k < pe; k++ {
				y[m.ColIdx[k]] += m.Vals[k] * xi
			}
		}
	})
	kdone(func(ki *kinstr) *obs.Histogram { return ki.tspmv }, t0)
}

// colRange returns the positions of row i's entries whose column lies in
// [lo, hi); full skips the search when the range covers every column.
func (m *SparseCSR) colRange(i, lo, hi int, full bool) (ps, pe int) {
	ps, pe = m.RowPtr[i], m.RowPtr[i+1]
	if !full {
		idx := m.ColIdx[ps:pe]
		pe = ps + sort.SearchInts(idx, hi)
		ps += sort.SearchInts(idx, lo)
	}
	return ps, pe
}

// Scale multiplies every stored value by a.
func (m *SparseCSR) Scale(a float64) *SparseCSR {
	for i := range m.Vals {
		m.Vals[i] *= a
	}
	return m
}

// ToDense expands m into a dense matrix.
func (m *SparseCSR) ToDense() *DenseMatrix {
	d := NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Data[i+m.ColIdx[k]*m.Rows] = m.Vals[k]
		}
	}
	return d
}

// CountSubNNZ counts the nonzeros inside the rows×cols region anchored at
// (r0, c0). The re-grid restore path for sparse matrices needs this extra
// counting pass to size new blocks before copying (paper section IV-B2:
// "the non-zero elements for the overlapping regions must be counted to
// determine the space required for the new sparse block").
func (m *SparseCSR) CountSubNNZ(r0, c0, rows, cols int) int {
	checkDim(r0 >= 0 && c0 >= 0 && r0+rows <= m.Rows && c0+cols <= m.Cols,
		"CountSubNNZ(%d, %d, %d, %d) out of %dx%d", r0, c0, rows, cols, m.Rows, m.Cols)
	full := c0 == 0 && cols == m.Cols
	n := 0
	for i := r0; i < r0+rows; i++ {
		ps, pe := m.colRange(i, c0, c0+cols, full)
		n += pe - ps
	}
	return n
}

// ExtractSubPresized copies the rows×cols region anchored at (r0, c0) into
// a new CSR matrix (indices rebased to the region's origin) whose nonzero
// count nnz is already known from an earlier CountSubNNZ pass, so the
// regrid restore counts each overlap once.
func (m *SparseCSR) ExtractSubPresized(r0, c0, rows, cols, nnz int) *SparseCSR {
	checkDim(r0 >= 0 && c0 >= 0 && r0+rows <= m.Rows && c0+cols <= m.Cols,
		"ExtractSubPresized(%d, %d, %d, %d) out of %dx%d", r0, c0, rows, cols, m.Rows, m.Cols)
	full := c0 == 0 && cols == m.Cols
	out := NewSparseCSR(rows, cols)
	out.ColIdx = make([]int, 0, nnz)
	out.Vals = make([]float64, 0, nnz)
	for i := 0; i < rows; i++ {
		ps, pe := m.colRange(r0+i, c0, c0+cols, full)
		for k := ps; k < pe; k++ {
			out.ColIdx = append(out.ColIdx, m.ColIdx[k]-c0)
		}
		out.Vals = append(out.Vals, m.Vals[ps:pe]...)
		out.RowPtr[i+1] = len(out.Vals)
	}
	return out
}

// ToCSC converts m to compressed-sparse-column form.
func (m *SparseCSR) ToCSC() *SparseCSC {
	out := NewSparseCSC(m.Rows, m.Cols)
	counts := make([]int, m.Cols+1)
	for _, j := range m.ColIdx {
		counts[j+1]++
	}
	for j := 0; j < m.Cols; j++ {
		counts[j+1] += counts[j]
	}
	out.ColPtr = counts
	out.RowIdx = make([]int, m.NNZ())
	out.Vals = make([]float64, m.NNZ())
	next := append([]int(nil), out.ColPtr...)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			out.RowIdx[next[j]] = i
			out.Vals[next[j]] = m.Vals[k]
			next[j]++
		}
	}
	return out
}

// Triplets returns the matrix's nonzeros in coordinate form (row-major
// order).
func (m *SparseCSR) Triplets() []Triplet {
	ts := make([]Triplet, 0, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			ts = append(ts, Triplet{Row: i, Col: m.ColIdx[k], Val: m.Vals[k]})
		}
	}
	return ts
}

// EqualApprox reports whether m and b represent the same matrix within tol.
func (m *SparseCSR) EqualApprox(b *SparseCSR, tol float64) bool {
	return m.ToCSC().EqualApprox(b.ToCSC(), tol)
}

// Bytes returns the serialized payload size, for network-cost accounting.
func (m *SparseCSR) Bytes() int { return 16*m.NNZ() + 8*len(m.RowPtr) }

// String implements fmt.Stringer.
func (m *SparseCSR) String() string {
	return fmt.Sprintf("SparseCSR(%dx%d, nnz=%d)", m.Rows, m.Cols, m.NNZ())
}
