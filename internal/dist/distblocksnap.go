package dist

import (
	"fmt"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/grid"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/snapshot"
)

// MakeSnapshot implements snapshot.Snapshottable: each place saves every
// block it owns under the block's ID; the descriptor records the
// snapshot-time grid and block→place mapping so restores can locate each
// block's replicas.
func (m *DistBlockMatrix) MakeSnapshot() (*snapshot.Snapshot, error) {
	comp, spec := m.newCompressor(m.rt)
	s, err := snapshot.New(m.rt, m.pg)
	if err != nil {
		return nil, err
	}
	meta := appendCompressMeta(make([]byte, 0, 8*codec.SizeInt+codec.SizeInts(len(m.dg.PlaceOf))), spec)
	meta = codec.AppendInt(meta, int(m.kind))
	meta = codec.AppendInt(meta, m.rows)
	meta = codec.AppendInt(meta, m.cols)
	meta = codec.AppendInt(meta, m.g.RowBlocks)
	meta = codec.AppendInt(meta, m.g.ColBlocks)
	meta = codec.AppendInts(meta, m.dg.PlaceOf)
	s.SetMeta(meta)
	err = apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		bs := m.plh.Local(ctx)
		if bs.Len() <= 1 {
			bs.Each(func(id int, b *block.MatrixBlock) { saveBlock(ctx, s, id, b, comp) })
			return
		}
		// A place holding several blocks encodes them in parallel tasks;
		// each task's backup put overlaps the other encodes.
		bs.Each(func(id int, b *block.MatrixBlock) {
			ctx.AsyncAt(ctx.Here, func(c *apgas.Ctx) { saveBlock(c, s, id, b, comp) })
		})
	})
	if err != nil {
		s.Destroy()
		return nil, err
	}
	noteLossyErr(s, comp)
	return s, nil
}

// saveBlock checkpoints one block under key (see Snapshot.SaveEncoded):
// the block is encoded into a pooled, exactly-sized buffer whose CRC-32C
// the codec.Encoder computes chunk by chunk as it writes (over each whole
// compressed frame when comp is set, recording the compression
// instrumentation on s).
func saveBlock(ctx *apgas.Ctx, s *snapshot.Snapshot, key int, b *block.MatrixBlock, comp codec.Compressor) {
	s.SaveEncoded(ctx, key, func() *codec.Encoder {
		var start time.Time
		if comp != nil {
			start = time.Now()
		}
		enc := codec.NewEncoderC(b.EncodedSize(), comp)
		b.EncodeInto(&enc)
		if comp != nil {
			s.NoteCompression(b.EncodedSize(), enc.Len(), time.Since(start))
		}
		return &enc
	})
}

// snapMeta is the decoded snapshot descriptor.
type snapMeta struct {
	kind       block.Kind
	rows, cols int
	oldGrid    *grid.Grid
	placeOf    []int
	// comp is the compressor the snapshot's frames were written through
	// (nil for an uncompressed snapshot).
	comp codec.Compressor
}

func decodeSnapMeta(meta []byte) (*snapMeta, error) {
	comp, rd, err := compressorForMeta(meta)
	if err != nil {
		return nil, err
	}
	var kind, rows, cols, rb, cb int
	for _, dst := range []*int{&kind, &rows, &cols, &rb, &cb} {
		if *dst, rd, err = codec.Int(rd); err != nil {
			return nil, fmt.Errorf("dist: snapshot meta: %w", err)
		}
	}
	placeOf, _, err := codec.Ints(rd)
	if err != nil {
		return nil, fmt.Errorf("dist: snapshot meta: %w", err)
	}
	g, err := grid.New(rows, cols, rb, cb)
	if err != nil {
		return nil, fmt.Errorf("dist: snapshot meta grid: %w", err)
	}
	if len(placeOf) != g.NumBlocks() {
		return nil, fmt.Errorf("dist: snapshot meta: %d owners for %d blocks", len(placeOf), g.NumBlocks())
	}
	return &snapMeta{kind: block.Kind(kind), rows: rows, cols: cols, oldGrid: g, placeOf: placeOf, comp: comp}, nil
}

// RestoreSnapshot implements snapshot.Snapshottable. If the current data
// grid equals the snapshot's (the shrink and replace modes), a block whose
// payload survived the Remake (retained at a surviving place) is kept if a
// local re-encode matches the snapshot's digest; every other block — owned
// by a fresh place, or moved past the checkpoint — is loaded whole, decoded
// into its existing payload allocation (DecodeInto). Installing the decoded
// slices instead would drop the block's pooled backing — the first
// checkpoint after every restore would then allocate every payload afresh —
// and would alias the regrid decode cache's buffers into live blocks. If
// the grid changed (shrink-rebalance), every place reassembles each of its
// new blocks from the overlapping regions of the old blocks; sparse blocks
// additionally run the nonzero-counting pass over the overlaps before
// allocating (paper section IV-B2).
func (m *DistBlockMatrix) RestoreSnapshot(s *snapshot.Snapshot) error {
	meta, err := decodeSnapMeta(s.Meta())
	if err != nil {
		return err
	}
	if meta.kind != m.kind || meta.rows != m.rows || meta.cols != m.cols {
		return fmt.Errorf("dist: restore %v %dx%d from snapshot of %v %dx%d: %w",
			m.kind, m.rows, m.cols, meta.kind, meta.rows, meta.cols, ErrShapeMismatch)
	}
	if !meta.oldGrid.Equal(m.g) {
		return m.restoreRegrid(s, meta)
	}
	reg := m.rt.Obs()
	kept := reg.Counter("dist.restore.partial.kept")
	keptBytes := reg.Counter("dist.restore.partial.bytes.kept")
	loaded := reg.Counter("dist.restore.partial.loaded")
	return apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		m.plh.Local(ctx).Each(func(id int, b *block.MatrixBlock) {
			if b.Retained && validateRetainedBlock(ctx, s, id, meta.placeOf[id], b, meta.comp) {
				b.Retained = false
				kept.Inc()
				keptBytes.Add(int64(b.EncodedSize()))
				return
			}
			if err := m.loadBlock(ctx, s, meta, id, b); err != nil {
				apgas.Throw(err)
			}
			b.Retained = false
			loaded.Inc()
		})
	})
}

// loadBlock fetches block id from the snapshot and overwrites b's payload
// in place.
func (m *DistBlockMatrix) loadBlock(ctx *apgas.Ctx, s *snapshot.Snapshot, meta *snapMeta, id int, b *block.MatrixBlock) error {
	data, err := s.Load(ctx, id, meta.placeOf[id])
	if err != nil {
		return err
	}
	if err := block.DecodeIntoC(b, data, meta.comp); err != nil {
		return fmt.Errorf("dist: restoring block %d: %w", id, err)
	}
	return nil
}

// restoreRegrid reassembles each new block from the overlapping regions of
// old blocks. Old blocks fetched once per place are cached — decoded form,
// cached only after a successful decode so a corrupt replica's fallback
// path (Load retries the backup on the next call) is never short-circuited
// by a poisoned cache slot.
func (m *DistBlockMatrix) restoreRegrid(s *snapshot.Snapshot, meta *snapMeta) error {
	oldG := meta.oldGrid
	return apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		cache := make(map[int]*block.MatrixBlock)
		loadOld := func(rb, cb int) *block.MatrixBlock {
			id := oldG.BlockID(rb, cb)
			if b, ok := cache[id]; ok {
				return b
			}
			data, err := s.Load(ctx, id, meta.placeOf[id])
			if err != nil {
				apgas.Throw(err)
			}
			b, err := block.DecodeC(data, meta.comp)
			if err != nil {
				apgas.Throw(err)
			}
			cache[id] = b
			return b
		}
		m.plh.Local(ctx).Each(func(id int, nb *block.MatrixBlock) {
			nb.Retained = false
			nb.Touch()
			overlaps := m.g.Overlaps(oldG, nb.RB, nb.CB)
			if m.kind == block.Dense {
				for _, ov := range overlaps {
					old := loadOld(ov.OldRB, ov.OldCB)
					sub := old.Dense.ExtractSub(ov.Row0-old.Row0, ov.Col0-old.Col0, ov.Rows, ov.Cols)
					nb.Dense.PasteSub(ov.Row0-nb.Row0, ov.Col0-nb.Col0, sub)
				}
				return
			}
			// Sparse: count the nonzeros of every overlap first to size
			// the new block (the extra pass the paper charges to sparse
			// re-grid restores), then assemble by merging the overlap
			// rows in order. g.Overlaps returns overlaps column-major
			// (old column-block outer, old row-block inner), so for any
			// row of the new block the contributing runs arrive in
			// ascending column order and the merge is a straight copy.
			nnz := 0
			subs := make([]*la.SparseCSR, len(overlaps))
			for i, ov := range overlaps {
				old := loadOld(ov.OldRB, ov.OldCB)
				// One counting pass per overlap sizes both the merged
				// block and the sub-extraction.
				n := old.Sparse.CountSubNNZ(ov.Row0-old.Row0, ov.Col0-old.Col0, ov.Rows, ov.Cols)
				nnz += n
				subs[i] = old.Sparse.ExtractSubPresized(ov.Row0-old.Row0, ov.Col0-old.Col0, ov.Rows, ov.Cols, n)
			}
			sp := la.NewSparseCSR(nb.Rows, nb.Cols)
			sp.ColIdx = make([]int, 0, nnz)
			sp.Vals = make([]float64, 0, nnz)
			for i := 0; i < nb.Rows; i++ {
				row := i + nb.Row0
				for k, ov := range overlaps {
					if row < ov.Row0 || row >= ov.Row0+ov.Rows {
						continue
					}
					sub := subs[k]
					ps, pe := sub.RowPtr[row-ov.Row0], sub.RowPtr[row-ov.Row0+1]
					colOff := ov.Col0 - nb.Col0
					for _, j := range sub.ColIdx[ps:pe] {
						sp.ColIdx = append(sp.ColIdx, j+colOff)
					}
					sp.Vals = append(sp.Vals, sub.Vals[ps:pe]...)
				}
				sp.RowPtr[i+1] = len(sp.Vals)
			}
			nb.Sparse = sp
		})
	})
}
