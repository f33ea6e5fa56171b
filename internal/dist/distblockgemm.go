package dist

import (
	"fmt"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/la"
)

// Distributed matrix-matrix operations, used by factorization workloads
// (GNMF). They require *row-striped conformal* operands: both matrices
// partitioned over the same place group with the same single-column block
// grid, so that corresponding row blocks are co-located and all products
// reduce along the replicated (duplicated) dimension. Row striping is how
// the factorization applications construct their matrices; general 2D
// grids would need a transpose-capable redistribution, which GML also did
// not provide for these products.

// conformalRows verifies that m and other are row-striped over identical
// partitions of the same place group.
func (m *DistBlockMatrix) conformalRows(other *DistBlockMatrix) error {
	if m.g.ColBlocks != 1 || other.g.ColBlocks != 1 {
		return fmt.Errorf("dist: matrix-matrix ops need row-striped operands (colBlocks==1): %w", ErrShapeMismatch)
	}
	if m.rows != other.rows || m.g.RowBlocks != other.g.RowBlocks {
		return fmt.Errorf("dist: row partitions differ (%d/%d rows, %d/%d blocks): %w",
			m.rows, other.rows, m.g.RowBlocks, other.g.RowBlocks, ErrShapeMismatch)
	}
	if !m.pg.Equal(other.pg) {
		return ErrGroupMismatch
	}
	for id := range m.dg.PlaceOf {
		if m.dg.PlaceOf[id] != other.dg.PlaceOf[id] {
			return fmt.Errorf("dist: block %d owned by different places: %w", id, ErrGroupMismatch)
		}
	}
	return nil
}

// TransMultMatrix computes out = mᵀ · other, reducing the co-located
// per-row-block partial products in canonical block order and broadcasting
// the K×M result to every duplicate of out. m must be dense (the factor);
// other may be dense or sparse (the data).
//
// Phase 1 fans each place's row blocks across the kernel pool, writing
// into scratch matrices reused across calls. Phase 2 concatenates the
// per-block partials up a binomial tree to the group root (no arithmetic
// on the way up), which then adds them in canonical row-block order and
// broadcasts via the tree Sync — O(log P) critical-path rounds each way.
func (m *DistBlockMatrix) TransMultMatrix(other *DistBlockMatrix, out *DupDenseMatrix) error {
	if m.kind != block.Dense {
		return fmt.Errorf("dist: TransMultMatrix: left operand must be dense")
	}
	if err := m.conformalRows(other); err != nil {
		return fmt.Errorf("dist: TransMultMatrix: %w", err)
	}
	if out.Rows() != m.cols || out.Cols() != other.cols {
		return fmt.Errorf("dist: TransMultMatrix out %dx%d, want %dx%d: %w",
			out.Rows(), out.Cols(), m.cols, other.cols, ErrShapeMismatch)
	}
	if !m.pg.Equal(out.Group()) {
		return fmt.Errorf("dist: TransMultMatrix: %w", ErrGroupMismatch)
	}
	out.MarkDirty()
	scratch, err := m.buffers()
	if err != nil {
		return err
	}
	// Phase 1: per-row-block partials Aᵣᵀ·Bᵣ at each owner, fanned across
	// the kernel pool into reused scratch matrices, then registered in the
	// up-sweep map for phase 2.
	err = apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		sc := scratch.Local(ctx)
		clear(sc.matUp)
		part := sc.mat
		mine := m.plh.Local(ctx)
		theirs := other.plh.Local(ctx)
		mine.Each(func(id int, a *block.MatrixBlock) {
			if p := part[id]; p == nil || p.Rows != m.cols || p.Cols != other.cols {
				part[id] = la.NewDense(m.cols, other.cols)
			}
		})
		mine.EachPar(func(id int, a *block.MatrixBlock) {
			b := theirs.Find(id)
			if b == nil {
				apgas.Throw(fmt.Errorf("dist: TransMultMatrix: block %d missing in right operand", id))
			}
			p := part[id]
			p.Zero()
			if b.Dense != nil {
				la.AccumTransDenseDense(a.Dense, b.Dense, p)
			} else {
				la.AccumTransDenseSparse(a.Dense, b.Sparse, p)
			}
		})
		mine.Each(func(id int, a *block.MatrixBlock) {
			sc.matUp[id] = part[id]
		})
	})
	if err != nil {
		return err
	}
	// Phase 2: the partials climb to the root (upSweep), which sums them
	// in canonical row-block order and broadcasts.
	err = upSweep(m, func(c *apgas.Ctx) map[int]*la.DenseMatrix { return scratch.Local(c).matUp },
		func(root *apgas.Ctx, all map[int]*la.DenseMatrix) {
			dst := out.Local(root)
			dst.Zero()
			for rb := 0; rb < m.g.RowBlocks; rb++ {
				dst.CellAdd(all[m.g.BlockID(rb, 0)])
			}
		})
	if err != nil {
		return err
	}
	return out.Sync()
}

// MultDupMatrix computes out = m · h for a dense row-striped m (N×K) and a
// duplicated h (K×M); out is a conformal dense row-striped N×M matrix.
// The product is embarrassingly parallel: every place multiplies its row
// blocks against its local duplicate of h.
func (m *DistBlockMatrix) MultDupMatrix(h *DupDenseMatrix, out *DistBlockMatrix) error {
	if m.kind != block.Dense || out.kind != block.Dense {
		return fmt.Errorf("dist: MultDupMatrix: operands must be dense")
	}
	if err := m.conformalRows(out); err != nil {
		return fmt.Errorf("dist: MultDupMatrix: %w", err)
	}
	if h.Rows() != m.cols || h.Cols() != out.cols {
		return fmt.Errorf("dist: MultDupMatrix h %dx%d, want %dx%d: %w",
			h.Rows(), h.Cols(), m.cols, out.cols, ErrShapeMismatch)
	}
	if !m.pg.Equal(h.Group()) {
		return fmt.Errorf("dist: MultDupMatrix: %w", ErrGroupMismatch)
	}
	return apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		hl := h.Local(ctx)
		outs := out.plh.Local(ctx)
		m.plh.Local(ctx).EachPar(func(id int, a *block.MatrixBlock) {
			o := outs.Find(id)
			if o == nil {
				apgas.Throw(fmt.Errorf("dist: MultDupMatrix: block %d missing in out", id))
			}
			a.Dense.Mult(hl, o.Dense)
			o.Touch()
		})
	})
}

// MultDupTranspose computes out = m · hᵀ for a sparse row-striped m (N×M)
// and a duplicated h (K×M); out is a conformal dense row-striped N×K
// matrix. Like MultDupMatrix, no communication is needed.
func (m *DistBlockMatrix) MultDupTranspose(h *DupDenseMatrix, out *DistBlockMatrix) error {
	if m.kind != block.Sparse || out.kind != block.Dense {
		return fmt.Errorf("dist: MultDupTranspose: want sparse · denseᵀ -> dense")
	}
	if err := m.conformalRows(out); err != nil {
		return fmt.Errorf("dist: MultDupTranspose: %w", err)
	}
	if h.Cols() != m.cols || h.Rows() != out.cols {
		return fmt.Errorf("dist: MultDupTranspose h %dx%d, want %dx%d: %w",
			h.Rows(), h.Cols(), out.cols, m.cols, ErrShapeMismatch)
	}
	if !m.pg.Equal(h.Group()) {
		return fmt.Errorf("dist: MultDupTranspose: %w", ErrGroupMismatch)
	}
	return apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		hl := h.Local(ctx)
		outs := out.plh.Local(ctx)
		m.plh.Local(ctx).EachPar(func(id int, v *block.MatrixBlock) {
			o := outs.Find(id)
			if o == nil {
				apgas.Throw(fmt.Errorf("dist: MultDupTranspose: block %d missing in out", id))
			}
			o.Dense.Zero()
			la.AccumSparseMultDenseT(v.Sparse, hl, o.Dense)
			o.Touch()
		})
	})
}

// ZipBlocks applies fn(dstBlock, aBlock, bBlock) to every co-located block
// triple of three conformal row-striped matrices — the element-wise
// multiply/divide updates of multiplicative factorization algorithms.
func ZipBlocks(dst, a, b *DistBlockMatrix, fn func(dst, a, b *block.MatrixBlock)) error {
	if err := dst.conformalRows(a); err != nil {
		return fmt.Errorf("dist: ZipBlocks: %w", err)
	}
	if err := dst.conformalRows(b); err != nil {
		return fmt.Errorf("dist: ZipBlocks: %w", err)
	}
	return apgas.ForEachPlace(dst.rt, dst.pg, func(ctx *apgas.Ctx, idx int) {
		ds := dst.plh.Local(ctx)
		as := a.plh.Local(ctx)
		bs := b.plh.Local(ctx)
		ds.Each(func(id int, d *block.MatrixBlock) {
			ab, bb := as.Find(id), bs.Find(id)
			if ab == nil || bb == nil {
				apgas.Throw(fmt.Errorf("dist: ZipBlocks: block %d missing", id))
			}
			fn(d, ab, bb)
			d.Touch()
		})
	})
}
