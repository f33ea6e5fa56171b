package dist

import (
	"fmt"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/snapshot"
)

// DupDenseMatrix duplicates a dense matrix at every place of a group
// (x10.matrix.dist.DupDenseMatrix). Group, Local, MarkDirty, AllApply,
// Root, Sync, Remake and the snapshot methods are the duplicated-object
// core's (dup).
type DupDenseMatrix struct {
	dup[*la.DenseMatrix]
	rows, cols int
}

// MakeDupDenseMatrix creates a zeroed duplicated rows×cols dense matrix.
func MakeDupDenseMatrix(rt *apgas.Runtime, rows, cols int, pg apgas.PlaceGroup) (*DupDenseMatrix, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("dist: MakeDupDenseMatrix(%d, %d): %w", rows, cols, ErrShapeMismatch)
	}
	d, err := makeDup[*la.DenseMatrix](rt, "DupDenseMatrix", denseKind{rows, cols}, pg)
	if err != nil {
		return nil, err
	}
	return &DupDenseMatrix{dup: d, rows: rows, cols: cols}, nil
}

// Rows returns the row count.
func (m *DupDenseMatrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *DupDenseMatrix) Cols() int { return m.cols }

// Init fills every duplicate with fn(i, j), evaluated redundantly at each
// place.
func (m *DupDenseMatrix) Init(fn func(i, j int) float64) error {
	return m.AllApply(func(local *la.DenseMatrix) {
		for j := 0; j < m.cols; j++ {
			for i := 0; i < m.rows; i++ {
				local.Set(i, j, fn(i, j))
			}
		}
	})
}

// ZipAll runs fn(local, xLocal) at every place of the shared group; fn
// must be deterministic so the duplicates stay identical.
func (m *DupDenseMatrix) ZipAll(x *DupDenseMatrix, fn func(a, b *la.DenseMatrix)) error {
	if !m.pg.Equal(x.pg) {
		return fmt.Errorf("dist: DupDenseMatrix.ZipAll: %w", ErrGroupMismatch)
	}
	m.ver++
	x.ver++
	return apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		fn(m.plh.Local(ctx), x.plh.Local(ctx))
	})
}

// ZipAll2 is ZipAll with two additional operands (the three-matrix
// update rule of multiplicative factorizations).
func (m *DupDenseMatrix) ZipAll2(x, y *DupDenseMatrix, fn func(a, b, c *la.DenseMatrix)) error {
	if !m.pg.Equal(x.pg) || !m.pg.Equal(y.pg) {
		return fmt.Errorf("dist: DupDenseMatrix.ZipAll2: %w", ErrGroupMismatch)
	}
	m.ver++
	x.ver++
	y.ver++
	return apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		fn(m.plh.Local(ctx), x.plh.Local(ctx), y.plh.Local(ctx))
	})
}

// DupSparseMatrix duplicates a sparse matrix at every place of a group
// (x10.matrix.dist.DupSparseMatrix). Its collectives, Remake and snapshot
// methods are the duplicated-object core's (dup).
type DupSparseMatrix struct {
	dup[*la.SparseCSR]
	rows, cols int
}

// MakeDupSparseMatrix creates an empty duplicated rows×cols sparse matrix.
func MakeDupSparseMatrix(rt *apgas.Runtime, rows, cols int, pg apgas.PlaceGroup) (*DupSparseMatrix, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("dist: MakeDupSparseMatrix(%d, %d): %w", rows, cols, ErrShapeMismatch)
	}
	d, err := makeDup[*la.SparseCSR](rt, "DupSparseMatrix", sparseKind{rows, cols}, pg)
	if err != nil {
		return nil, err
	}
	return &DupSparseMatrix{dup: d, rows: rows, cols: cols}, nil
}

// Rows returns the row count.
func (m *DupSparseMatrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *DupSparseMatrix) Cols() int { return m.cols }

// InitColumns fills every duplicate from a per-column generator (see
// DistBlockMatrix.InitSparseColumns), evaluated redundantly at each place.
func (m *DupSparseMatrix) InitColumns(fn func(j int) (rows []int, vals []float64)) error {
	return m.AllApply(func(local *la.SparseCSR) {
		var ts []la.Triplet
		for j := 0; j < m.cols; j++ {
			rows, vals := fn(j)
			for k, i := range rows {
				ts = append(ts, la.Triplet{Row: i, Col: j, Val: vals[k]})
			}
		}
		*local = *la.NewSparseCSRFromTriplets(m.rows, m.cols, ts)
	})
}

// denseKind and sparseKind are the duplicated-matrix payloads. Both
// checkpoint as a single block (saveBlock), so their bytes are those of a
// DistBlockMatrix block of the same content.
type denseKind struct{ rows, cols int }

func (k denseKind) alloc() *la.DenseMatrix { return la.NewDense(k.rows, k.cols) }
func (k denseKind) fits(d *la.DenseMatrix) bool {
	return d != nil && d.Rows == k.rows && d.Cols == k.cols
}
func (denseKind) clone(d *la.DenseMatrix) *la.DenseMatrix { return d.Clone() }
func (denseKind) copyInto(dst, src *la.DenseMatrix) *la.DenseMatrix {
	copy(dst.Data, src.Data)
	return dst
}
func (denseKind) bytes(d *la.DenseMatrix) int       { return d.Bytes() }
func (denseKind) encodedSize(d *la.DenseMatrix) int { return denseBlock(d).EncodedSize() }

func (denseKind) save(c *apgas.Ctx, s *snapshot.Snapshot, d *la.DenseMatrix, comp codec.Compressor) {
	saveBlock(c, s, 0, denseBlock(d), comp)
}

func (denseKind) decodeInto(dst *la.DenseMatrix, data []byte, comp codec.Compressor) error {
	return block.DecodeIntoC(denseBlock(dst), data, comp)
}

func (denseKind) validate(c *apgas.Ctx, s *snapshot.Snapshot, d *la.DenseMatrix, comp codec.Compressor) bool {
	return validateRetainedBlock(c, s, 0, 0, denseBlock(d), comp)
}

type sparseKind struct{ rows, cols int }

func (k sparseKind) alloc() *la.SparseCSR { return la.NewSparseCSR(k.rows, k.cols) }
func (k sparseKind) fits(sp *la.SparseCSR) bool {
	return sp != nil && sp.Rows == k.rows && sp.Cols == k.cols
}
func (sparseKind) clone(sp *la.SparseCSR) *la.SparseCSR { return sp.Clone() }
func (sparseKind) copyInto(dst, src *la.SparseCSR) *la.SparseCSR {
	dst.RowPtr = append(dst.RowPtr[:0], src.RowPtr...)
	dst.ColIdx = append(dst.ColIdx[:0], src.ColIdx...)
	dst.Vals = append(dst.Vals[:0], src.Vals...)
	return dst
}
func (sparseKind) bytes(sp *la.SparseCSR) int       { return sp.Bytes() }
func (sparseKind) encodedSize(sp *la.SparseCSR) int { return sparseBlock(sp).EncodedSize() }

func (sparseKind) save(c *apgas.Ctx, s *snapshot.Snapshot, sp *la.SparseCSR, comp codec.Compressor) {
	saveBlock(c, s, 0, sparseBlock(sp), comp)
}

func (sparseKind) decodeInto(dst *la.SparseCSR, data []byte, comp codec.Compressor) error {
	return block.DecodeIntoC(sparseBlock(dst), data, comp)
}

func (sparseKind) validate(c *apgas.Ctx, s *snapshot.Snapshot, sp *la.SparseCSR, comp codec.Compressor) bool {
	return validateRetainedBlock(c, s, 0, 0, sparseBlock(sp), comp)
}

// denseBlock and sparseBlock wrap a duplicate as a single block for
// snapshot serialization.
func denseBlock(d *la.DenseMatrix) *block.MatrixBlock {
	return &block.MatrixBlock{Rows: d.Rows, Cols: d.Cols, Dense: d}
}

func sparseBlock(sp *la.SparseCSR) *block.MatrixBlock {
	return &block.MatrixBlock{Rows: sp.Rows, Cols: sp.Cols, Sparse: sp}
}
