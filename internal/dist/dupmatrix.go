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
// (x10.matrix.dist.DupDenseMatrix).
type DupDenseMatrix struct {
	rt         *apgas.Runtime
	rows, cols int
	pg         apgas.PlaceGroup
	plh        apgas.PlaceLocalHandle[*la.DenseMatrix]
	// ver is the logical content version for delta checkpointing (see
	// DupVector: the snapshot stores one copy, so ver tracks the logical
	// value; MarkDirty covers direct Local mutation).
	ver uint64
	// retained[idx] marks a duplicate whose storage survived a Remake at
	// the same place (see DupVector.retained).
	retained []bool
	// compressible carries the per-object checkpoint-compression
	// override and lossy opt-in (SetCompression, AllowLossyCheckpoint).
	compressible
}

// MakeDupDenseMatrix creates a zeroed duplicated rows×cols dense matrix.
func MakeDupDenseMatrix(rt *apgas.Runtime, rows, cols int, pg apgas.PlaceGroup) (*DupDenseMatrix, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("dist: MakeDupDenseMatrix(%d, %d): %w", rows, cols, ErrShapeMismatch)
	}
	if pg.Size() == 0 {
		return nil, fmt.Errorf("dist: MakeDupDenseMatrix: empty place group")
	}
	plh, err := apgas.NewPlaceLocalHandle(rt, pg, func(ctx *apgas.Ctx, idx int) *la.DenseMatrix {
		return la.NewDense(rows, cols)
	})
	if err != nil {
		return nil, err
	}
	return &DupDenseMatrix{rt: rt, rows: rows, cols: cols, pg: pg.Clone(), plh: plh}, nil
}

// Rows returns the row count.
func (m *DupDenseMatrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *DupDenseMatrix) Cols() int { return m.cols }

// Group returns the place group.
func (m *DupDenseMatrix) Group() apgas.PlaceGroup { return m.pg }

// Local returns the calling place's duplicate. Code that writes into it
// directly must call MarkDirty, or delta checkpoints fall back to (and
// depend on) the CRC comparison.
func (m *DupDenseMatrix) Local(ctx *apgas.Ctx) *la.DenseMatrix { return m.plh.Local(ctx) }

// MarkDirty records that the matrix's logical value was mutated outside
// its own collectives, forcing the next delta checkpoint to re-examine
// it.
func (m *DupDenseMatrix) MarkDirty() { m.ver++ }

// Init fills every duplicate with fn(i, j), evaluated redundantly at each
// place.
func (m *DupDenseMatrix) Init(fn func(i, j int) float64) error {
	m.ver++
	return apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		local := m.plh.Local(ctx)
		for j := 0; j < m.cols; j++ {
			for i := 0; i < m.rows; i++ {
				local.Set(i, j, fn(i, j))
			}
		}
	})
}

// AllApply runs fn on the duplicate at every place; fn must be
// deterministic to keep the duplicates identical.
func (m *DupDenseMatrix) AllApply(fn func(local *la.DenseMatrix)) error {
	m.ver++
	return apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		fn(m.plh.Local(ctx))
	})
}

// Root reads the root duplicate into a fresh matrix (for result
// extraction by the main activity).
func (m *DupDenseMatrix) Root() (*la.DenseMatrix, error) {
	var out *la.DenseMatrix
	err := m.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(m.pg[0], func(c *apgas.Ctx) {
			out = m.Local(c).Clone()
		})
	})
	return out, err
}

// ZipAll runs fn(local, xLocal) at every place of the shared group; fn
// must be deterministic so the duplicates stay identical.
func (m *DupDenseMatrix) ZipAll(x *DupDenseMatrix, fn func(a, b *la.DenseMatrix)) error {
	if !sameGroups(m.pg, x.pg) {
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
	if !sameGroups(m.pg, x.pg) || !sameGroups(m.pg, y.pg) {
		return fmt.Errorf("dist: DupDenseMatrix.ZipAll2: %w", ErrGroupMismatch)
	}
	m.ver++
	x.ver++
	y.ver++
	return apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		fn(m.plh.Local(ctx), x.plh.Local(ctx), y.plh.Local(ctx))
	})
}

// Sync broadcasts the root duplicate to every other place along a
// binomial tree over the group index (the DupVector.Sync scheme): same
// total volume as the flat broadcast, O(log P) critical-path sends.
func (m *DupDenseMatrix) Sync() error {
	if m.pg.Size() <= 1 {
		return nil
	}
	return m.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(m.pg[0], func(root *apgas.Ctx) {
			src := m.plh.Local(root).Clone()
			m.bcast(root, 0, m.pg.Size(), src)
		})
	})
}

// bcast relays src — already present at group index idx — to the group
// index range [idx, idx+span); see DupVector.bcast.
func (m *DupDenseMatrix) bcast(c *apgas.Ctx, idx, span int, src *la.DenseMatrix) {
	for span > 1 {
		h := span / 2
		mid := idx + span - h
		p := m.pg[mid]
		sub := src
		c.Transfer(p, sub.Bytes())
		c.AsyncAt(p, func(cc *apgas.Ctx) {
			local := m.plh.Local(cc)
			copy(local.Data, sub.Data)
			m.bcast(cc, mid, h, local)
		})
		span -= h
	}
}

// Remake reallocates the duplicated matrix over a new group. Duplicates
// at places present in both groups are carried over with their contents
// and marked retained (see DupVector.Remake); new places come up zeroed.
// The caller is expected to restore or overwrite the matrix before
// reading it.
func (m *DupDenseMatrix) Remake(newPG apgas.PlaceGroup) error {
	if newPG.Size() == 0 {
		return fmt.Errorf("dist: DupDenseMatrix.Remake: empty place group")
	}
	oldPLH, oldPG := m.plh, m.pg
	retained := make([]bool, newPG.Size())
	retCtr := m.rt.Obs().Counter("dist.remake.segments.retained")
	plh, err := apgas.NewPlaceLocalHandle(m.rt, newPG, func(ctx *apgas.Ctx, idx int) *la.DenseMatrix {
		if old, ok := oldPLH.TryLocal(ctx); ok && old != nil && old.Rows == m.rows && old.Cols == m.cols {
			retained[idx] = true
			retCtr.Inc()
			return old
		}
		return la.NewDense(m.rows, m.cols)
	})
	if err != nil {
		return err
	}
	oldPLH.Destroy(oldPG)
	m.pg = newPG.Clone()
	m.plh = plh
	m.retained = retained
	return nil
}

// bcastList relays src — already present at group index idxs[0] — to the
// remaining indices along a binomial halving (see DupVector.bcastList).
func (m *DupDenseMatrix) bcastList(c *apgas.Ctx, idxs []int, src *la.DenseMatrix) {
	for len(idxs) > 1 {
		h := len(idxs) / 2
		rest := idxs[len(idxs)-h:]
		p := m.pg[rest[0]]
		sub := src
		c.Transfer(p, sub.Bytes())
		c.AsyncAt(p, func(cc *apgas.Ctx) {
			local := m.plh.Local(cc)
			copy(local.Data, sub.Data)
			m.bcastList(cc, rest, local)
		})
		idxs = idxs[:len(idxs)-h]
	}
}

// dupBlock wraps a duplicate as a single block for snapshot serialization.
func dupDenseBlock(d *la.DenseMatrix) *block.MatrixBlock {
	return &block.MatrixBlock{Rows: d.Rows, Cols: d.Cols, Dense: d}
}

func dupSparseBlock(sp *la.SparseCSR) *block.MatrixBlock {
	return &block.MatrixBlock{Rows: sp.Rows, Cols: sp.Cols, Sparse: sp}
}

// MakeSnapshot implements snapshot.Snapshottable: a full save, i.e. a
// delta save against nothing.
func (m *DupDenseMatrix) MakeSnapshot() (*snapshot.Snapshot, error) { return m.MakeDeltaSnapshot(nil) }

// MakeDeltaSnapshot implements snapshot.DirtyTracker: one logical copy is
// saved by the group root (all duplicates are identical; see
// DupVector.MakeDeltaSnapshot), carried forward by reference when the
// matrix's version is unchanged since prev (or its bytes compare equal),
// and saved fresh when prev is nil or unusable as a baseline (see
// deltaBase).
func (m *DupDenseMatrix) MakeDeltaSnapshot(prev *snapshot.Snapshot) (*snapshot.Snapshot, error) {
	comp, spec := m.newCompressor(m.rt)
	prev = deltaBase(prev, m.pg, spec)
	s, err := snapshot.New(m.rt, m.pg)
	if err != nil {
		return nil, err
	}
	s.SetMeta(appendCompressMeta(nil, spec))
	ver := m.ver
	err = m.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(m.pg[0], func(c *apgas.Ctx) {
			// Keyed by the duplicated object's own version, not the wrapper
			// block's (rebuilt on every checkpoint, so its Ver is always 0).
			saveBlock(c, s, prev, 0, ver, dupDenseBlock(m.plh.Local(c)), comp)
		})
	})
	if err != nil {
		s.Destroy()
		return nil, err
	}
	noteLossyErr(s, comp)
	return s, nil
}

// RestoreSnapshot implements snapshot.Snapshottable.
func (m *DupDenseMatrix) RestoreSnapshot(s *snapshot.Snapshot) error {
	comp, _, err := compressorForMeta(s.Meta())
	if err != nil {
		return fmt.Errorf("dist: DupDenseMatrix restore meta: %w", err)
	}
	return apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		if idx < len(m.retained) {
			m.retained[idx] = false
		}
		data, err := s.Load(ctx, 0, 0)
		if err != nil {
			apgas.Throw(err)
		}
		if err := block.DecodeIntoC(dupDenseBlock(m.plh.Local(ctx)), data, comp); err != nil {
			apgas.Throw(fmt.Errorf("dist: DupDenseMatrix restore: %w", err))
		}
	})
}

// RestoreSnapshotPartial implements snapshot.PartialRestorer (see
// DupVector.RestoreSnapshotPartial): one validated survivor supplies the
// data, re-broadcast along a binomial tree to just the places that lost
// it; with no valid survivor, falls back to the full restore.
func (m *DupDenseMatrix) RestoreSnapshotPartial(s *snapshot.Snapshot) error {
	comp, _, err := compressorForMeta(s.Meta())
	if err != nil {
		return fmt.Errorf("dist: DupDenseMatrix restore meta: %w", err)
	}
	valid := make([]bool, m.pg.Size())
	if len(m.retained) == m.pg.Size() {
		err := apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
			if !m.retained[idx] {
				return
			}
			m.retained[idx] = false
			valid[idx] = validateRetainedBlock(ctx, s, 0, 0, dupDenseBlock(m.plh.Local(ctx)), comp)
		})
		if err != nil {
			return err
		}
	}
	src := -1
	for idx, ok := range valid {
		if ok {
			src = idx
			break
		}
	}
	if src < 0 {
		return m.RestoreSnapshot(s)
	}
	reg := m.rt.Obs()
	encSize := 7*codec.SizeInt + codec.SizeFloat64s(m.rows*m.cols)
	idxs := []int{src}
	for idx, ok := range valid {
		if ok {
			reg.Counter("dist.restore.partial.kept").Inc()
			reg.Counter("dist.restore.partial.bytes.kept").Add(int64(encSize))
		} else {
			idxs = append(idxs, idx)
		}
	}
	if len(idxs) == 1 {
		return nil
	}
	reg.Counter("dist.restore.partial.bcast").Add(int64(len(idxs) - 1))
	return m.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(m.pg[src], func(c *apgas.Ctx) {
			m.bcastList(c, idxs, m.plh.Local(c).Clone())
		})
	})
}

// DupSparseMatrix duplicates a sparse matrix at every place of a group
// (x10.matrix.dist.DupSparseMatrix).
type DupSparseMatrix struct {
	rt         *apgas.Runtime
	rows, cols int
	pg         apgas.PlaceGroup
	plh        apgas.PlaceLocalHandle[*la.SparseCSR]
	// compressible carries the per-object checkpoint-compression
	// override and lossy opt-in (SetCompression, AllowLossyCheckpoint).
	compressible
}

// MakeDupSparseMatrix creates an empty duplicated rows×cols sparse matrix.
func MakeDupSparseMatrix(rt *apgas.Runtime, rows, cols int, pg apgas.PlaceGroup) (*DupSparseMatrix, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("dist: MakeDupSparseMatrix(%d, %d): %w", rows, cols, ErrShapeMismatch)
	}
	if pg.Size() == 0 {
		return nil, fmt.Errorf("dist: MakeDupSparseMatrix: empty place group")
	}
	plh, err := apgas.NewPlaceLocalHandle(rt, pg, func(ctx *apgas.Ctx, idx int) *la.SparseCSR {
		return la.NewSparseCSR(rows, cols)
	})
	if err != nil {
		return nil, err
	}
	return &DupSparseMatrix{rt: rt, rows: rows, cols: cols, pg: pg.Clone(), plh: plh}, nil
}

// Rows returns the row count.
func (m *DupSparseMatrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *DupSparseMatrix) Cols() int { return m.cols }

// Group returns the place group.
func (m *DupSparseMatrix) Group() apgas.PlaceGroup { return m.pg }

// Local returns the calling place's duplicate.
func (m *DupSparseMatrix) Local(ctx *apgas.Ctx) *la.SparseCSR { return m.plh.Local(ctx) }

// InitColumns fills every duplicate from a per-column generator (see
// DistBlockMatrix.InitSparseColumns), evaluated redundantly at each place.
func (m *DupSparseMatrix) InitColumns(fn func(j int) (rows []int, vals []float64)) error {
	return apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		var ts []la.Triplet
		for j := 0; j < m.cols; j++ {
			rows, vals := fn(j)
			for k, i := range rows {
				ts = append(ts, la.Triplet{Row: i, Col: j, Val: vals[k]})
			}
		}
		*m.plh.Local(ctx) = *la.NewSparseCSRFromTriplets(m.rows, m.cols, ts)
	})
}

// Remake reallocates the duplicated matrix (empty) over a new group.
func (m *DupSparseMatrix) Remake(newPG apgas.PlaceGroup) error {
	if newPG.Size() == 0 {
		return fmt.Errorf("dist: DupSparseMatrix.Remake: empty place group")
	}
	m.plh.Destroy(m.pg)
	plh, err := apgas.NewPlaceLocalHandle(m.rt, newPG, func(ctx *apgas.Ctx, idx int) *la.SparseCSR {
		return la.NewSparseCSR(m.rows, m.cols)
	})
	if err != nil {
		return err
	}
	m.pg = newPG.Clone()
	m.plh = plh
	return nil
}

// MakeSnapshot implements snapshot.Snapshottable: one logical copy is
// saved by the group root (all duplicates are identical; see
// DupVector.MakeSnapshot).
func (m *DupSparseMatrix) MakeSnapshot() (*snapshot.Snapshot, error) {
	s, err := snapshot.New(m.rt, m.pg)
	if err != nil {
		return nil, err
	}
	comp, spec := m.newCompressor(m.rt)
	if meta := appendCompressMeta(nil, spec); len(meta) > 0 {
		s.SetMeta(meta)
	}
	err = m.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(m.pg[0], func(c *apgas.Ctx) {
			saveBlock(c, s, nil, 0, 0, dupSparseBlock(m.plh.Local(c)), comp)
		})
	})
	if err != nil {
		s.Destroy()
		return nil, err
	}
	noteLossyErr(s, comp)
	return s, nil
}

// RestoreSnapshot implements snapshot.Snapshottable.
func (m *DupSparseMatrix) RestoreSnapshot(s *snapshot.Snapshot) error {
	comp, _, err := compressorForMeta(s.Meta())
	if err != nil {
		return fmt.Errorf("dist: DupSparseMatrix restore meta: %w", err)
	}
	return apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		data, err := s.Load(ctx, 0, 0)
		if err != nil {
			apgas.Throw(err)
		}
		b, err := block.DecodeC(data, comp)
		if err != nil {
			apgas.Throw(err)
		}
		if b.Sparse == nil || b.Rows != m.rows || b.Cols != m.cols {
			apgas.Throw(fmt.Errorf("dist: DupSparseMatrix restore shape mismatch"))
		}
		*m.plh.Local(ctx) = *b.Sparse
	})
}
