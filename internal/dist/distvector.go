package dist

import (
	"fmt"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/grid"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/snapshot"
)

// DistVector partitions a length-n vector into contiguous segments, one
// per place of a group (x10.matrix.dist.DistVector). Segment sizes follow
// the near-even Split rule, so redistributing over a different group size
// re-segments the vector.
type DistVector struct {
	rt       *apgas.Runtime
	n        int
	pg       apgas.PlaceGroup
	segSizes []int
	segOffs  []int // len = pg.Size()+1
	plh      apgas.PlaceLocalHandle[la.Vector]
	// ver is the vector's content version for the kernel data plane,
	// which ships a segment to a worker only when the worker does not
	// hold it at this version: every collective that may write the
	// segments bumps it (MarkDirty for direct Local mutation). Segments
	// are mutated collectively, so one object-level version covers all
	// of them.
	ver uint64
	// retained[idx] marks a segment whose storage survived a Remake at
	// the same place and group index; RestoreSnapshot validates it
	// against the snapshot digest instead of re-loading it.
	retained []bool
	// compressible carries the object's lossy-checkpoint opt-in
	// (AllowLossyCheckpoint).
	compressible
}

// MakeDistVector creates a zeroed distributed vector of length n over pg.
func MakeDistVector(rt *apgas.Runtime, n int, pg apgas.PlaceGroup) (*DistVector, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: MakeDistVector(%d): %w", n, ErrShapeMismatch)
	}
	if pg.Size() == 0 || pg.Size() > n {
		return nil, fmt.Errorf("dist: MakeDistVector(%d) over %d places", n, pg.Size())
	}
	v := &DistVector{rt: rt, n: n, pg: pg.Clone()}
	v.segSizes = grid.Split(n, pg.Size())
	v.segOffs = grid.Offsets(v.segSizes)
	plh, err := apgas.NewPlaceLocalHandle(rt, pg, func(ctx *apgas.Ctx, idx int) la.Vector {
		return la.NewVector(v.segSizes[idx])
	})
	if err != nil {
		return nil, err
	}
	v.plh = plh
	return v, nil
}

// Size returns the vector length.
func (v *DistVector) Size() int { return v.n }

// Group returns the place group the vector is distributed over.
func (v *DistVector) Group() apgas.PlaceGroup { return v.pg }

// SegmentOf returns the offset and size of the segment owned by group
// index idx.
func (v *DistVector) SegmentOf(idx int) (off, size int) {
	return v.segOffs[idx], v.segSizes[idx]
}

// Local returns the calling place's segment. Code that writes into it
// directly must call MarkDirty, or worker kernels keep computing on the
// copy shipped at the old version.
func (v *DistVector) Local(ctx *apgas.Ctx) la.Vector { return v.plh.Local(ctx) }

// MarkDirty records that segment contents were mutated outside the
// vector's own collectives, so the next worker kernel that reads the
// vector re-ships it.
func (v *DistVector) MarkDirty() { v.ver++ }

// Init sets element i to fn(i) at its owning place.
func (v *DistVector) Init(fn func(i int) float64) error {
	v.ver++
	return apgas.ForEachPlace(v.rt, v.pg, func(ctx *apgas.Ctx, idx int) {
		seg := v.plh.Local(ctx)
		off := v.segOffs[idx]
		for i := range seg {
			seg[i] = fn(off + i)
		}
	})
}

// ApplyLocal runs fn on every segment in parallel, passing the segment's
// global offset.
func (v *DistVector) ApplyLocal(fn func(seg la.Vector, off int)) error {
	v.ver++
	return apgas.ForEachPlace(v.rt, v.pg, func(ctx *apgas.Ctx, idx int) {
		fn(v.plh.Local(ctx), v.segOffs[idx])
	})
}

// Scale multiplies every element by a.
func (v *DistVector) Scale(a float64) error {
	return v.ApplyLocal(func(seg la.Vector, _ int) { seg.Scale(a) })
}

// ZipApplyLocal runs fn(segA, segB, off) on the conformal segments of v
// and w in parallel (for element-wise combinations such as residual
// computation).
func (v *DistVector) ZipApplyLocal(w *DistVector, fn func(a, b la.Vector, off int)) error {
	if err := v.conforms("ZipApplyLocal", w.pg, w.n); err != nil {
		return err
	}
	v.ver++
	w.ver++
	return apgas.ForEachPlace(v.rt, v.pg, func(ctx *apgas.Ctx, idx int) {
		fn(v.plh.Local(ctx), w.plh.Local(ctx), v.segOffs[idx])
	})
}

// ZipDup runs fn(seg, dupSeg, off) on each segment of v together with the
// corresponding slice of a duplicated vector of the same length.
func (v *DistVector) ZipDup(w *DupVector, fn func(seg, dupSeg la.Vector, off int)) error {
	if err := v.conforms("ZipDup", w.pg, w.n); err != nil {
		return err
	}
	v.ver++
	w.ver++
	return apgas.ForEachPlace(v.rt, v.pg, func(ctx *apgas.Ctx, idx int) {
		seg, off := v.plh.Local(ctx), v.segOffs[idx]
		fn(seg, w.Local(ctx)[off:off+len(seg)], off)
	})
}

// DotDup computes the inner product of v with a duplicated vector of the
// same length and group (paper Listing 2: U.dot(P)).
func (v *DistVector) DotDup(w *DupVector) (float64, error) {
	if err := v.conforms("DotDup", w.pg, w.n); err != nil {
		return 0, err
	}
	return v.fold(func(ctx *apgas.Ctx, seg la.Vector, off int) float64 {
		return seg.Dot(w.Local(ctx)[off : off+len(seg)])
	})
}

// Dot computes the inner product of two conformal distributed vectors.
func (v *DistVector) Dot(w *DistVector) (float64, error) {
	if err := v.conforms("Dot", w.pg, w.n); err != nil {
		return 0, err
	}
	return v.fold(func(ctx *apgas.Ctx, seg la.Vector, _ int) float64 {
		return seg.Dot(w.plh.Local(ctx))
	})
}

// FoldLocal maps fn over every segment in parallel and sums the per-place
// results in group order (a deterministic reduction, e.g. for norms and
// objective values).
func (v *DistVector) FoldLocal(fn func(seg la.Vector, off int) float64) (float64, error) {
	return v.fold(func(_ *apgas.Ctx, seg la.Vector, off int) float64 { return fn(seg, off) })
}

// FoldZip is FoldLocal over the conformal segments of two distributed
// vectors.
func (v *DistVector) FoldZip(w *DistVector, fn func(a, b la.Vector, off int) float64) (float64, error) {
	if err := v.conforms("FoldZip", w.pg, w.n); err != nil {
		return 0, err
	}
	return v.fold(func(ctx *apgas.Ctx, seg la.Vector, off int) float64 {
		return fn(seg, w.plh.Local(ctx), off)
	})
}

// fold is the one reduction behind Dot, DotDup, FoldLocal and FoldZip:
// fn runs on every segment in parallel, each place ships its partial to
// the root, and the partials are summed in group order — so a replay
// after a failure reproduces the failure-free sum bit for bit.
func (v *DistVector) fold(fn func(ctx *apgas.Ctx, seg la.Vector, off int) float64) (float64, error) {
	partials := make([]float64, v.pg.Size())
	err := apgas.ForEachPlace(v.rt, v.pg, func(ctx *apgas.Ctx, idx int) {
		partials[idx] = fn(ctx, v.plh.Local(ctx), v.segOffs[idx])
		ctx.Transfer(v.pg[0], 8)
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, p := range partials {
		sum += p
	}
	return sum, nil
}

// conforms checks that an operand of op distributed over pg with length n
// matches v's group and length.
func (v *DistVector) conforms(op string, pg apgas.PlaceGroup, n int) error {
	if !v.pg.Equal(pg) {
		return fmt.Errorf("dist: %s: %w", op, ErrGroupMismatch)
	}
	if v.n != n {
		return fmt.Errorf("dist: %s %d vs %d: %w", op, v.n, n, ErrShapeMismatch)
	}
	return nil
}

// GatherTo collects the segments into the root duplicate of dup (paper
// Listing 2: GP.copyTo(P.local()) — the gather before the broadcast). The
// caller follows up with dup.Sync().
func (v *DistVector) GatherTo(dup *DupVector) error {
	if v.n != dup.n {
		return fmt.Errorf("dist: GatherTo %d into %d: %w", v.n, dup.n, ErrShapeMismatch)
	}
	if !v.pg.Equal(dup.pg) {
		return fmt.Errorf("dist: GatherTo: %w", ErrGroupMismatch)
	}
	dup.ver++
	return v.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(v.pg[0], func(root *apgas.Ctx) {
			dst := dup.Local(root)
			for idx := 0; idx < v.pg.Size(); idx++ {
				off, size := v.segOffs[idx], v.segSizes[idx]
				seg := apgas.Eval(root, v.pg[idx], func(c *apgas.Ctx) la.Vector {
					s := v.plh.Local(c).Clone()
					c.Transfer(v.pg[0], s.Bytes())
					return s
				})
				dst[off : off+size].CopyFrom(seg)
			}
		})
	})
}

// ToVector collects the whole distributed vector into one local vector at
// the main activity (for result extraction and tests).
func (v *DistVector) ToVector() (la.Vector, error) {
	out := la.NewVector(v.n)
	err := v.rt.Finish(func(ctx *apgas.Ctx) {
		for idx := 0; idx < v.pg.Size(); idx++ {
			off, size := v.segOffs[idx], v.segSizes[idx]
			seg := apgas.Eval(ctx, v.pg[idx], func(c *apgas.Ctx) la.Vector {
				s := v.plh.Local(c).Clone()
				c.Transfer(ctx.Here, s.Bytes())
				return s
			})
			out[off : off+size].CopyFrom(seg)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Remake redistributes the vector over a new place group, recomputing
// the segmentation (classes that assign one segment per place must
// recalculate their data grid when the group changes — paper section
// IV-A2). When the new group has the same size, segments whose owning
// place is unchanged are carried over with their contents and marked
// retained, so a following RestoreSnapshot can validate them against the
// checkpoint instead of re-loading; all other segments come up zeroed.
// The caller is expected to restore or overwrite the vector before
// reading it.
func (v *DistVector) Remake(newPG apgas.PlaceGroup) error {
	if newPG.Size() == 0 || newPG.Size() > v.n {
		return fmt.Errorf("dist: DistVector.Remake over %d places", newPG.Size())
	}
	oldPLH, oldPG := v.plh, v.pg
	segSizes := grid.Split(v.n, newPG.Size())
	retained := make([]bool, newPG.Size())
	sameSize := newPG.Size() == oldPG.Size()
	retCtr := v.rt.Obs().Counter("dist.remake.segments.retained")
	plh, err := apgas.NewPlaceLocalHandle(v.rt, newPG, func(ctx *apgas.Ctx, idx int) la.Vector {
		if sameSize && newPG[idx] == oldPG[idx] {
			if old, ok := oldPLH.TryLocal(ctx); ok && len(old) == segSizes[idx] {
				retained[idx] = true
				retCtr.Inc()
				return old
			}
		}
		return la.NewVector(segSizes[idx])
	})
	if err != nil {
		return err
	}
	oldPLH.Destroy(oldPG)
	v.pg = newPG.Clone()
	v.segSizes = segSizes
	v.segOffs = grid.Offsets(segSizes)
	v.plh = plh
	v.retained = retained
	return nil
}

// MakeSnapshot implements snapshot.Snapshottable: each place saves its
// segment under its group index; the descriptor records the
// snapshot-time segmentation.
func (v *DistVector) MakeSnapshot() (*snapshot.Snapshot, error) {
	comp, spec := v.newCompressor(v.rt)
	s, err := snapshot.New(v.rt, v.pg)
	if err != nil {
		return nil, err
	}
	meta := appendCompressMeta(nil, spec)
	meta = codec.AppendInt(meta, v.n)
	meta = codec.AppendInts(meta, v.segSizes)
	s.SetMeta(meta)
	err = apgas.ForEachPlace(v.rt, v.pg, func(ctx *apgas.Ctx, idx int) {
		saveVector(ctx, s, idx, v.plh.Local(ctx), comp)
	})
	if err != nil {
		s.Destroy()
		return nil, err
	}
	noteLossyErr(s, comp)
	return s, nil
}

// RestoreSnapshot implements snapshot.Snapshottable. When the current
// segmentation matches the snapshot's (restore onto the same number of
// places), a segment retained through the preceding Remake is validated
// against the checkpoint digest (a local re-encode whose CRC must match
// the stored sum) and kept in place when it matches; every other segment
// — its owner died, or its survivor state diverged from the checkpoint —
// is loaded whole. Otherwise each place reassembles its new segment from
// the overlapping old segments (the re-partitioned path).
func (v *DistVector) RestoreSnapshot(s *snapshot.Snapshot) error {
	comp, objMeta, err := compressorForMeta(s.Meta())
	if err != nil {
		return fmt.Errorf("dist: DistVector restore meta: %w", err)
	}
	n, rest, err := codec.Int(objMeta)
	if err != nil {
		return fmt.Errorf("dist: DistVector restore meta: %w", err)
	}
	oldSizes, _, err := codec.Ints(rest)
	if err != nil {
		return fmt.Errorf("dist: DistVector restore meta: %w", err)
	}
	if n != v.n {
		return fmt.Errorf("dist: DistVector restore length %d, want %d: %w", n, v.n, ErrShapeMismatch)
	}
	oldOffs := grid.Offsets(oldSizes)
	// The segments rewind to the checkpoint, so the version must move:
	// worker-side kernel caches may hold the diverged pre-restore rows
	// under the current version.
	v.ver++

	sameSeg := len(oldSizes) == v.pg.Size()
	reg := v.rt.Obs()
	kept := reg.Counter("dist.restore.partial.kept")
	keptBytes := reg.Counter("dist.restore.partial.bytes.kept")
	loaded := reg.Counter("dist.restore.partial.loaded")
	return apgas.ForEachPlace(v.rt, v.pg, func(ctx *apgas.Ctx, idx int) {
		retained := idx < len(v.retained) && v.retained[idx]
		if retained {
			v.retained[idx] = false
		}
		seg := v.plh.Local(ctx)
		if sameSeg {
			if retained && validateRetainedVector(ctx, s, idx, idx, seg, comp) {
				kept.Inc()
				keptBytes.Add(int64(codec.SizeFloat64s(len(seg))))
				return
			}
			// Same segmentation: decode straight into the existing
			// segment storage.
			data, err := s.Load(ctx, idx, idx)
			if err != nil {
				apgas.Throw(err)
			}
			old, err := decodeVectorInto(seg, data, comp)
			if err != nil {
				apgas.Throw(err)
			}
			seg.CopyFrom(old)
			loaded.Inc()
			return
		}
		// Re-segmented: copy the overlapping parts of each old segment.
		off := v.segOffs[idx]
		end := off + len(seg)
		for oldIdx := 0; oldIdx < len(oldSizes); oldIdx++ {
			o0, o1 := oldOffs[oldIdx], oldOffs[oldIdx+1]
			lo, hi := max(off, o0), min(end, o1)
			if hi <= lo {
				continue
			}
			data, err := s.Load(ctx, oldIdx, oldIdx)
			if err != nil {
				apgas.Throw(err)
			}
			old, err := decodeVector(data, comp)
			if err != nil {
				apgas.Throw(err)
			}
			copy(seg[lo-off:hi-off], old[lo-o0:hi-o0])
		}
	})
}
