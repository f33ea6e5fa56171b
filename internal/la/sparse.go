package la

import (
	"fmt"
	"math"
	"sort"

	"github.com/rgml/rgml/internal/par"
)

// Triplet is one nonzero entry in coordinate form, used when assembling
// sparse matrices.
type Triplet struct {
	Row, Col int
	Val      float64
}

// SparseCSC is a compressed-sparse-column matrix, the counterpart of
// x10.matrix.sparse.SparseCSC. Column j's nonzeros occupy
// RowIdx[ColPtr[j]:ColPtr[j+1]] / Vals[ColPtr[j]:ColPtr[j+1]], with row
// indices sorted ascending within each column. Matrix blocks are stored
// as SparseCSR; this type is the library's column-major form, and its
// kernels are the references the CSR ones reproduce bit for bit.
type SparseCSC struct {
	Rows, Cols int
	ColPtr     []int
	RowIdx     []int
	Vals       []float64
}

// NewSparseCSC returns an empty rows×cols CSC matrix.
func NewSparseCSC(rows, cols int) *SparseCSC {
	checkDim(rows >= 0 && cols >= 0, "NewSparseCSC(%d, %d)", rows, cols)
	return &SparseCSC{Rows: rows, Cols: cols, ColPtr: make([]int, cols+1)}
}

// NewSparseCSCFromTriplets assembles a CSC matrix from coordinate entries.
// Duplicate (row, col) entries are summed.
func NewSparseCSCFromTriplets(rows, cols int, ts []Triplet) *SparseCSC {
	for _, t := range ts {
		checkDim(t.Row >= 0 && t.Row < rows && t.Col >= 0 && t.Col < cols,
			"triplet (%d, %d) out of %dx%d", t.Row, t.Col, rows, cols)
	}
	sorted := make([]Triplet, len(ts))
	copy(sorted, ts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Col != sorted[j].Col {
			return sorted[i].Col < sorted[j].Col
		}
		return sorted[i].Row < sorted[j].Row
	})
	m := NewSparseCSC(rows, cols)
	m.RowIdx = make([]int, 0, len(sorted))
	m.Vals = make([]float64, 0, len(sorted))
	col := 0
	for _, t := range sorted {
		n := len(m.Vals)
		if n > 0 && col == t.Col && m.RowIdx[n-1] == t.Row {
			m.Vals[n-1] += t.Val // duplicate entry: sum
			continue
		}
		// Close the ColPtr bounds of every column up to t.Col.
		for ; col < t.Col; col++ {
			m.ColPtr[col+1] = n
		}
		m.RowIdx = append(m.RowIdx, t.Row)
		m.Vals = append(m.Vals, t.Val)
		m.ColPtr[col+1] = len(m.Vals)
	}
	for ; col < cols; col++ {
		m.ColPtr[col+1] = len(m.Vals)
	}
	return m
}

// NNZ returns the number of stored nonzeros.
func (m *SparseCSC) NNZ() int { return len(m.Vals) }

// At returns element (i, j) (zero when not stored).
func (m *SparseCSC) At(i, j int) float64 {
	checkDim(i >= 0 && i < m.Rows && j >= 0 && j < m.Cols, "At(%d, %d) out of %dx%d", i, j, m.Rows, m.Cols)
	lo, hi := m.ColPtr[j], m.ColPtr[j+1]
	k := lo + sort.SearchInts(m.RowIdx[lo:hi], i)
	if k < hi && m.RowIdx[k] == i {
		return m.Vals[k]
	}
	return 0
}

// Clone returns an independent copy.
func (m *SparseCSC) Clone() *SparseCSC {
	out := &SparseCSC{
		Rows: m.Rows, Cols: m.Cols,
		ColPtr: append([]int(nil), m.ColPtr...),
		RowIdx: append([]int(nil), m.RowIdx...),
		Vals:   append([]float64(nil), m.Vals...),
	}
	return out
}

// MultVec computes y = m · x. y has length m.Rows and is overwritten.
//
// The scatter across output rows is parallelized by output-row range:
// each chunk binary-searches every column's sorted row indices for its
// own sub-range (SparseCSR.TransMultVec's scheme, transposed), preserving
// the naive loop's exact per-element accumulation order.
func (m *SparseCSC) MultVec(x, y Vector) {
	checkDim(len(x) == m.Cols, "MultVec: x len %d != cols %d", len(x), m.Cols)
	checkDim(len(y) == m.Rows, "MultVec: y len %d != rows %d", len(y), m.Rows)
	par.For(m.Rows, cscRowGrain, func(lo, hi int) {
		seg := y[lo:hi]
		for i := range seg {
			seg[i] = 0
		}
		full := lo == 0 && hi == m.Rows
		for j := 0; j < m.Cols; j++ {
			xj := x[j]
			if xj == 0 {
				continue
			}
			ps, pe := m.ColPtr[j], m.ColPtr[j+1]
			if !full {
				idx := m.RowIdx[ps:pe]
				pe = ps + sort.SearchInts(idx, hi)
				ps += sort.SearchInts(idx, lo)
			}
			for k := ps; k < pe; k++ {
				y[m.RowIdx[k]] += m.Vals[k] * xj
			}
		}
	})
}

// TransMultVec computes y = mᵀ · x. y has length m.Cols and is overwritten.
// Parallel over columns; each column keeps the naive single-accumulator
// gather, so the result is bit-identical to the serial loop.
func (m *SparseCSC) TransMultVec(x, y Vector) {
	checkDim(len(x) == m.Rows, "TransMultVec: x len %d != rows %d", len(x), m.Rows)
	checkDim(len(y) == m.Cols, "TransMultVec: y len %d != cols %d", len(y), m.Cols)
	par.For(m.Cols, cscColGrain, func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			var s float64
			for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
				s += m.Vals[k] * x[m.RowIdx[k]]
			}
			y[j] = s
		}
	})
}

// Scale multiplies every stored value by a.
func (m *SparseCSC) Scale(a float64) *SparseCSC {
	for i := range m.Vals {
		m.Vals[i] *= a
	}
	return m
}

// ToDense expands m into a dense matrix.
func (m *SparseCSC) ToDense() *DenseMatrix {
	d := NewDense(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			d.Data[m.RowIdx[k]+j*m.Rows] = m.Vals[k]
		}
	}
	return d
}

// Triplets returns the matrix's nonzeros in coordinate form (column-major
// order).
func (m *SparseCSC) Triplets() []Triplet {
	ts := make([]Triplet, 0, m.NNZ())
	for j := 0; j < m.Cols; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			ts = append(ts, Triplet{Row: m.RowIdx[k], Col: j, Val: m.Vals[k]})
		}
	}
	return ts
}

// EqualApprox reports whether m and b represent the same matrix within tol.
func (m *SparseCSC) EqualApprox(b *SparseCSC, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for j := 0; j < m.Cols; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			if math.Abs(m.Vals[k]-b.At(m.RowIdx[k], j)) > tol {
				return false
			}
		}
		for k := b.ColPtr[j]; k < b.ColPtr[j+1]; k++ {
			if math.Abs(b.Vals[k]-m.At(b.RowIdx[k], j)) > tol {
				return false
			}
		}
	}
	return true
}

// Bytes returns the serialized payload size, for network-cost accounting:
// 8 bytes per value plus 8 per row index plus the column pointers.
func (m *SparseCSC) Bytes() int { return 16*m.NNZ() + 8*len(m.ColPtr) }

// String implements fmt.Stringer.
func (m *SparseCSC) String() string {
	return fmt.Sprintf("SparseCSC(%dx%d, nnz=%d)", m.Rows, m.Cols, m.NNZ())
}

// ToCSR converts m to compressed-sparse-row form.
func (m *SparseCSC) ToCSR() *SparseCSR {
	out := NewSparseCSR(m.Rows, m.Cols)
	counts := make([]int, m.Rows+1)
	for _, i := range m.RowIdx {
		counts[i+1]++
	}
	for i := 0; i < m.Rows; i++ {
		counts[i+1] += counts[i]
	}
	out.RowPtr = counts
	out.ColIdx = make([]int, m.NNZ())
	out.Vals = make([]float64, m.NNZ())
	next := append([]int(nil), out.RowPtr...)
	for j := 0; j < m.Cols; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			i := m.RowIdx[k]
			out.ColIdx[next[i]] = j
			out.Vals[next[i]] = m.Vals[k]
			next[i]++
		}
	}
	return out
}
