package dist

import (
	"fmt"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/snapshot"
)

// DupVector duplicates a length-n vector at every place of a group
// (x10.matrix.dist.DupVector). Iterative solvers keep their small model
// vectors duplicated so that large distributed operands can consume them
// without communication; after local updates, Sync re-broadcasts the root
// copy (paper Listing 2, line 17).
type DupVector struct {
	rt  *apgas.Runtime
	n   int
	pg  apgas.PlaceGroup
	plh apgas.PlaceLocalHandle[la.Vector]
	// ver is the logical content version for delta checkpointing. The
	// snapshot stores one copy (the root's), so ver tracks the logical
	// value: every collective that changes it bumps ver (MarkDirty for
	// direct Local mutation). Sync republishes the root value without
	// changing it, so it does not bump.
	ver uint64
	// retained[idx] marks a duplicate whose storage survived a Remake at
	// the same place; partial restore validates one survivor against the
	// checkpoint digest and re-broadcasts from it instead of loading at
	// every place.
	retained []bool
	// compressible carries the per-object checkpoint-compression
	// override and lossy opt-in (SetCompression, AllowLossyCheckpoint).
	compressible
}

// MakeDupVector creates a zeroed duplicated vector of length n over pg
// (the factory method DupVector.make).
func MakeDupVector(rt *apgas.Runtime, n int, pg apgas.PlaceGroup) (*DupVector, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: MakeDupVector(%d): %w", n, ErrShapeMismatch)
	}
	if pg.Size() == 0 {
		return nil, fmt.Errorf("dist: MakeDupVector: empty place group")
	}
	plh, err := apgas.NewPlaceLocalHandle(rt, pg, func(ctx *apgas.Ctx, idx int) la.Vector {
		return la.NewVector(n)
	})
	if err != nil {
		return nil, err
	}
	return &DupVector{rt: rt, n: n, pg: pg.Clone(), plh: plh}, nil
}

// Size returns the vector length.
func (v *DupVector) Size() int { return v.n }

// Group returns the place group the vector is duplicated over.
func (v *DupVector) Group() apgas.PlaceGroup { return v.pg }

// Local returns the calling place's duplicate. Code that writes into it
// directly must call MarkDirty, or delta checkpoints fall back to (and
// depend on) the CRC comparison.
func (v *DupVector) Local(ctx *apgas.Ctx) la.Vector { return v.plh.Local(ctx) }

// MarkDirty records that the vector's logical value was mutated outside
// its own collectives, forcing the next delta checkpoint to re-examine
// it.
func (v *DupVector) MarkDirty() { v.ver++ }

// Init sets every duplicate to the values of fn(i), identically at every
// place (no communication: fn is evaluated redundantly, which is how GML
// initializes duplicated objects deterministically).
func (v *DupVector) Init(fn func(i int) float64) error {
	v.ver++
	return apgas.ForEachPlace(v.rt, v.pg, func(ctx *apgas.Ctx, idx int) {
		local := v.plh.Local(ctx)
		for i := range local {
			local[i] = fn(i)
		}
	})
}

// AllApply runs fn on the duplicate at every place. fn must be
// deterministic so the duplicates stay identical (the standard GML idiom
// for duplicated-operand arithmetic: every place redundantly performs the
// same cheap update instead of broadcasting).
func (v *DupVector) AllApply(fn func(local la.Vector)) error {
	v.ver++
	return apgas.ForEachPlace(v.rt, v.pg, func(ctx *apgas.Ctx, idx int) {
		fn(v.plh.Local(ctx))
	})
}

// ZipAll runs fn(va, vb) on the duplicates of v and w at every place of
// their shared group. Both vectors must be duplicated over the same group.
// fn must be deterministic so the duplicates stay identical — the GML
// idiom for duplicated-operand arithmetic (e.g. w += α·p in CG).
func (v *DupVector) ZipAll(w *DupVector, fn func(a, b la.Vector)) error {
	if !sameGroups(v.pg, w.pg) {
		return fmt.Errorf("dist: ZipAll: %w", ErrGroupMismatch)
	}
	v.ver++
	w.ver++
	return apgas.ForEachPlace(v.rt, v.pg, func(ctx *apgas.Ctx, idx int) {
		fn(v.plh.Local(ctx), w.plh.Local(ctx))
	})
}

// Dot computes the inner product of two duplicated vectors. Because both
// operands are duplicated, the product is evaluated locally at the group
// root without communication.
func (v *DupVector) Dot(w *DupVector) (float64, error) {
	if !sameGroups(v.pg, w.pg) {
		return 0, fmt.Errorf("dist: DupVector.Dot: %w", ErrGroupMismatch)
	}
	if v.n != w.n {
		return 0, fmt.Errorf("dist: DupVector.Dot %d vs %d: %w", v.n, w.n, ErrShapeMismatch)
	}
	var out float64
	err := v.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(v.pg[0], func(c *apgas.Ctx) {
			out = v.plh.Local(c).Dot(w.plh.Local(c))
		})
	})
	return out, err
}

// RootApply runs fn on the root (group index 0) duplicate only. Callers
// follow up with Sync to publish the change to the other places.
func (v *DupVector) RootApply(fn func(local la.Vector)) error {
	v.ver++
	return v.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(v.pg[0], func(c *apgas.Ctx) {
			fn(v.plh.Local(c))
		})
	})
}

// Root reads the root duplicate into a fresh vector (for result
// extraction by the main activity).
func (v *DupVector) Root() (la.Vector, error) {
	var out la.Vector
	err := v.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(v.pg[0], func(c *apgas.Ctx) {
			out = v.plh.Local(c).Clone()
		})
	})
	return out, err
}

// Sync broadcasts the root copy to every other place of the group (paper
// Listing 2: P.sync()) along a binomial tree over the group index: the
// root hands the upper half of the index range to its midpoint, which
// relays within that half concurrently while the root recurses on the
// lower half. Every edge charges the network model for one full payload,
// so the total volume matches the flat broadcast but the critical path is
// O(log P) sends instead of O(P).
func (v *DupVector) Sync() error {
	if v.pg.Size() <= 1 {
		return nil
	}
	return v.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(v.pg[0], func(root *apgas.Ctx) {
			src := v.plh.Local(root).Clone()
			v.bcast(root, 0, v.pg.Size(), src)
		})
	})
}

// bcast relays src — already present at group index idx — to the group
// index range [idx, idx+span). Each iteration peels off the upper half of
// the remaining range and forwards it to that half's first index, whose
// async relays the sub-range in parallel with the sender's next peels.
func (v *DupVector) bcast(c *apgas.Ctx, idx, span int, src la.Vector) {
	for span > 1 {
		h := span / 2
		mid := idx + span - h
		p := v.pg[mid]
		sub := src
		c.Transfer(p, sub.Bytes())
		c.AsyncAt(p, func(cc *apgas.Ctx) {
			local := v.plh.Local(cc).CopyFrom(sub)
			v.warm(cc, local)
			v.bcast(cc, mid, h, local)
		})
		span -= h
	}
}

// bcastList is bcast over an arbitrary list of group indices: src is
// already present at idxs[0] and is relayed to the remaining indices
// along the same binomial halving, O(log n) critical-path rounds. Used
// by the partial restore to reach only the places that lost their
// duplicate.
func (v *DupVector) bcastList(c *apgas.Ctx, idxs []int, src la.Vector) {
	for len(idxs) > 1 {
		h := len(idxs) / 2
		rest := idxs[len(idxs)-h:]
		p := v.pg[rest[0]]
		sub := src
		c.Transfer(p, sub.Bytes())
		c.AsyncAt(p, func(cc *apgas.Ctx) {
			local := v.plh.Local(cc).CopyFrom(sub)
			v.bcastList(cc, rest, local)
		})
		idxs = idxs[:len(idxs)-h]
	}
}

// Remake reallocates the vector over a new place group (paper section
// IV-A: remake(newPlaces)). Duplicates at places present in both groups
// are carried over with their contents and marked retained, so a
// following partial restore can validate one survivor against the
// checkpoint and re-broadcast from it; duplicates at new places come up
// zeroed. The caller is expected to restore or overwrite the vector
// before reading it.
func (v *DupVector) Remake(newPG apgas.PlaceGroup) error {
	if newPG.Size() == 0 {
		return fmt.Errorf("dist: DupVector.Remake: empty place group")
	}
	oldPLH, oldPG := v.plh, v.pg
	retained := make([]bool, newPG.Size())
	retCtr := v.rt.Obs().Counter("dist.remake.segments.retained")
	plh, err := apgas.NewPlaceLocalHandle(v.rt, newPG, func(ctx *apgas.Ctx, idx int) la.Vector {
		if old, ok := oldPLH.TryLocal(ctx); ok && len(old) == v.n {
			retained[idx] = true
			retCtr.Inc()
			return old
		}
		return la.NewVector(v.n)
	})
	if err != nil {
		return err
	}
	oldPLH.Destroy(oldPG)
	v.pg = newPG.Clone()
	v.plh = plh
	v.retained = retained
	return nil
}

// MakeSnapshot implements snapshot.Snapshottable: a full save, i.e. a
// delta save against nothing.
func (v *DupVector) MakeSnapshot() (*snapshot.Snapshot, error) { return v.MakeDeltaSnapshot(nil) }

// MakeDeltaSnapshot implements snapshot.DirtyTracker. All duplicates are
// identical, so one logical copy is saved: the group root stores it (with
// the usual next-place backup). Saving P redundant copies would make
// checkpointing a duplicated object O(P²) in data volume — the paper's
// checkpoint times (Table III: PageRank, whose mutable state is one
// DupVector, checkpoints in a fraction of LinReg's time) show the
// implementation saves duplicated state once. The copy is carried forward
// by reference when the vector's version is unchanged since prev (or its
// bytes compare equal), and saved fresh when prev is nil or unusable as a
// baseline (see deltaBase).
func (v *DupVector) MakeDeltaSnapshot(prev *snapshot.Snapshot) (*snapshot.Snapshot, error) {
	comp, spec := v.newCompressor(v.rt)
	prev = deltaBase(prev, v.pg, spec)
	s, err := snapshot.New(v.rt, v.pg)
	if err != nil {
		return nil, err
	}
	s.SetMeta(appendCompressMeta(nil, spec))
	ver := v.ver
	err = v.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(v.pg[0], func(c *apgas.Ctx) {
			saveVector(c, s, prev, 0, ver, v.plh.Local(c), comp)
		})
	})
	if err != nil {
		s.Destroy()
		return nil, err
	}
	noteLossyErr(s, comp)
	return s, nil
}

// RestoreSnapshot implements snapshot.Snapshottable: every place of the
// vector's *current* group (which may be smaller, equal, or — with
// elastic replacement — differently composed than the snapshot group)
// concurrently loads a duplicate (paper section IV-B2).
func (v *DupVector) RestoreSnapshot(s *snapshot.Snapshot) error {
	// The logical value rewinds to the checkpoint, so the version must move:
	// worker-side kernel caches may hold the diverged pre-restore content
	// under the current version, and the next delta checkpoint must
	// re-examine the vector either way.
	v.ver++
	comp, _, err := compressorForMeta(s.Meta())
	if err != nil {
		return fmt.Errorf("dist: DupVector restore meta: %w", err)
	}
	return apgas.ForEachPlace(v.rt, v.pg, func(ctx *apgas.Ctx, idx int) {
		if idx < len(v.retained) {
			v.retained[idx] = false
		}
		data, err := s.Load(ctx, 0, 0)
		if err != nil {
			apgas.Throw(err)
		}
		vec, err := decodeVector(data, comp)
		if err != nil {
			apgas.Throw(err)
		}
		if len(vec) != v.n {
			apgas.Throw(fmt.Errorf("dist: DupVector restore length %d, want %d", len(vec), v.n))
		}
		v.plh.Local(ctx).CopyFrom(vec)
	})
}

// RestoreSnapshotPartial implements snapshot.PartialRestorer: duplicates
// retained through the preceding Remake are validated against the
// checkpoint digest; if at least one survivor matches, it alone supplies
// the data, re-broadcast along a binomial tree to just the places that
// lost (or diverged from) the checkpointed value — no snapshot loads at
// all. With no valid survivor, falls back to the full restore.
func (v *DupVector) RestoreSnapshotPartial(s *snapshot.Snapshot) error {
	// Same version bump as RestoreSnapshot (which this may fall back to):
	// the rewind invalidates any kernel-cache entry shipped at the old
	// version.
	v.ver++
	comp, _, err := compressorForMeta(s.Meta())
	if err != nil {
		return fmt.Errorf("dist: DupVector restore meta: %w", err)
	}
	valid := make([]bool, v.pg.Size())
	if len(v.retained) == v.pg.Size() {
		err := apgas.ForEachPlace(v.rt, v.pg, func(ctx *apgas.Ctx, idx int) {
			if !v.retained[idx] {
				return
			}
			v.retained[idx] = false
			local := v.plh.Local(ctx)
			valid[idx] = len(local) == v.n && validateRetainedVector(ctx, s, 0, 0, local, comp)
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
		return v.RestoreSnapshot(s)
	}
	reg := v.rt.Obs()
	idxs := []int{src}
	for idx, ok := range valid {
		if ok {
			reg.Counter("dist.restore.partial.kept").Inc()
			reg.Counter("dist.restore.partial.bytes.kept").Add(int64(codec.SizeFloat64s(v.n)))
		} else {
			idxs = append(idxs, idx)
		}
	}
	if len(idxs) == 1 {
		return nil
	}
	reg.Counter("dist.restore.partial.bcast").Add(int64(len(idxs) - 1))
	return v.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(v.pg[src], func(c *apgas.Ctx) {
			v.bcastList(c, idxs, v.plh.Local(c).Clone())
		})
	})
}
