package dist

import (
	"fmt"
	"slices"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/snapshot"
)

// dupKind is what one payload type contributes to the duplicated-object
// core: the shape-bound allocation, copy and codec steps. Everything else
// a duplicated object does — broadcast, Remake, snapshot and restore — is
// dup's, written once for DupVector, DupDenseMatrix and DupSparseMatrix.
type dupKind[T any] interface {
	// alloc returns a zeroed payload of the object's shape.
	alloc() T
	// fits reports whether a payload has the object's shape (a duplicate
	// surviving a Remake is kept only if it does).
	fits(T) bool
	clone(T) T
	// copyInto overwrites dst with src and returns dst.
	copyInto(dst, src T) T
	// bytes is the payload size counted in apgas.net.bytes.
	bytes(T) int
	// encodedSize is the payload's uncompressed checkpoint size.
	encodedSize(T) int
	// save checkpoints the payload under key 0 (see saveVector/saveBlock).
	save(c *apgas.Ctx, s *snapshot.Snapshot, local T, comp codec.Compressor)
	// decodeInto overwrites dst with a checkpointed payload.
	decodeInto(dst T, data []byte, comp codec.Compressor) error
	// validate checks a retained payload against the checkpoint digest.
	validate(c *apgas.Ctx, s *snapshot.Snapshot, local T, comp codec.Compressor) bool
}

// dup is the shared core of the duplicated classes: one payload per place
// of a group, all identical (x10.matrix.dist.Dup*). The exported methods
// below are promoted to DupVector, DupDenseMatrix and DupSparseMatrix.
type dup[T any] struct {
	rt   *apgas.Runtime
	name string
	kind dupKind[T]
	pg   apgas.PlaceGroup
	plh  apgas.PlaceLocalHandle[T]
	// ver is the logical content version for the kernel data plane, which
	// ships the value to a worker only when the worker does not hold it
	// at this version: every collective that changes the content at any
	// place bumps ver (MarkDirty for direct Local mutation), Sync
	// included, so one version names one content at every place.
	ver uint64
	// retained[idx] marks a duplicate whose storage survived a Remake at
	// the same place; RestoreSnapshot validates one survivor against the
	// checkpoint digest and re-broadcasts from it instead of loading at
	// every place.
	retained []bool
	// compressible carries the object's lossy-checkpoint opt-in
	// (AllowLossyCheckpoint).
	compressible
}

// makeDup allocates a zeroed duplicate of kind's shape at every place of
// pg.
func makeDup[T any](rt *apgas.Runtime, name string, kind dupKind[T], pg apgas.PlaceGroup) (dup[T], error) {
	if pg.Size() == 0 {
		return dup[T]{}, fmt.Errorf("dist: Make%s: empty place group", name)
	}
	plh, err := apgas.NewPlaceLocalHandle(rt, pg, func(*apgas.Ctx, int) T { return kind.alloc() })
	if err != nil {
		return dup[T]{}, err
	}
	return dup[T]{rt: rt, name: name, kind: kind, pg: pg.Clone(), plh: plh}, nil
}

// Group returns the place group the object is duplicated over.
func (d *dup[T]) Group() apgas.PlaceGroup { return d.pg }

// Local returns the calling place's duplicate. Code that writes into it
// directly must call MarkDirty, or worker kernels keep computing on the
// copy shipped at the old version.
func (d *dup[T]) Local(ctx *apgas.Ctx) T { return d.plh.Local(ctx) }

// MarkDirty records that the object's logical value was mutated outside
// its own collectives, so the next worker kernel that reads it re-ships
// it.
func (d *dup[T]) MarkDirty() { d.ver++ }

// AllApply runs fn on the duplicate at every place. fn must be
// deterministic so the duplicates stay identical (the standard GML idiom
// for duplicated-operand arithmetic: every place redundantly performs the
// same cheap update instead of broadcasting).
func (d *dup[T]) AllApply(fn func(local T)) error {
	d.ver++
	return apgas.ForEachPlace(d.rt, d.pg, func(ctx *apgas.Ctx, idx int) {
		fn(d.plh.Local(ctx))
	})
}

// Root reads the root (group index 0) duplicate into a fresh copy (for
// result extraction by the main activity).
func (d *dup[T]) Root() (T, error) {
	var out T
	err := d.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(d.pg[0], func(c *apgas.Ctx) {
			out = d.kind.clone(d.plh.Local(c))
		})
	})
	return out, err
}

// Sync broadcasts the root copy to every other place of the group (paper
// Listing 2: P.sync()) along a binomial tree over the group index (see
// bcast): same total volume as the flat broadcast, O(log P)
// critical-path sends. It bumps the version: a kernel dispatched at a
// non-root place before Sync may have cached that place's old content
// under the current one.
func (d *dup[T]) Sync() error {
	d.ver++
	if d.pg.Size() <= 1 {
		return nil
	}
	idxs := make([]int, d.pg.Size())
	for i := range idxs {
		idxs[i] = i
	}
	return d.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(d.pg[0], func(root *apgas.Ctx) {
			d.bcast(root, idxs, d.kind.clone(d.plh.Local(root)))
		})
	})
}

// bcast relays src — already present at group index idxs[0] — to the
// remaining indices along a binomial halving: each round peels off the
// upper half of the list and hands it to that half's first index, whose
// async relays the half in parallel with the sender's next peels. Every
// edge counts one full payload in apgas.net.*, and the critical
// path is O(log n) sends. Sync broadcasts over the whole group;
// RestoreSnapshot over just the places that lost the checkpointed value.
func (d *dup[T]) bcast(c *apgas.Ctx, idxs []int, src T) {
	for len(idxs) > 1 {
		h := len(idxs) / 2
		rest := idxs[len(idxs)-h:]
		p := d.pg[rest[0]]
		c.Transfer(p, d.kind.bytes(src))
		c.AsyncAt(p, func(cc *apgas.Ctx) {
			d.bcast(cc, rest, d.kind.copyInto(d.plh.Local(cc), src))
		})
		idxs = idxs[:len(idxs)-h]
	}
}

// Remake reallocates the object over a new place group (paper section
// IV-A: remake(newPlaces)). Duplicates at places present in both groups
// are carried over with their contents and marked retained, so a
// following RestoreSnapshot can validate one survivor against the
// checkpoint and re-broadcast from it; duplicates at new places come up
// zeroed. The caller is expected to restore or overwrite the object
// before reading it.
func (d *dup[T]) Remake(newPG apgas.PlaceGroup) error {
	if newPG.Size() == 0 {
		return fmt.Errorf("dist: %s.Remake: empty place group", d.name)
	}
	oldPLH, oldPG := d.plh, d.pg
	retained := make([]bool, newPG.Size())
	retCtr := d.rt.Obs().Counter("dist.remake.segments.retained")
	plh, err := apgas.NewPlaceLocalHandle(d.rt, newPG, func(ctx *apgas.Ctx, idx int) T {
		if old, ok := oldPLH.TryLocal(ctx); ok && d.kind.fits(old) {
			retained[idx] = true
			retCtr.Inc()
			return old
		}
		return d.kind.alloc()
	})
	if err != nil {
		return err
	}
	oldPLH.Destroy(oldPG)
	d.pg = newPG.Clone()
	d.plh = plh
	d.retained = retained
	return nil
}

// MakeSnapshot implements snapshot.Snapshottable. All duplicates are
// identical, so one logical copy is saved: the group root stores it (with
// the usual next-place backup). Saving P redundant copies would make
// checkpointing a duplicated object O(P²) in data volume — the paper's
// checkpoint times (Table III: PageRank, whose mutable state is one
// DupVector, checkpoints in a fraction of LinReg's time) show the
// implementation saves duplicated state once.
func (d *dup[T]) MakeSnapshot() (*snapshot.Snapshot, error) {
	comp, spec := d.newCompressor(d.rt)
	s, err := snapshot.New(d.rt, d.pg)
	if err != nil {
		return nil, err
	}
	s.SetMeta(appendCompressMeta(nil, spec))
	err = d.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(d.pg[0], func(c *apgas.Ctx) {
			d.kind.save(c, s, d.plh.Local(c), comp)
		})
	})
	if err != nil {
		s.Destroy()
		return nil, err
	}
	noteLossyErr(s, comp)
	return s, nil
}

// RestoreSnapshot implements snapshot.Snapshottable over the object's
// *current* group (which may be smaller, equal, or — with elastic
// replacement — differently composed than the snapshot group). Duplicates
// retained through the preceding Remake are validated against the
// checkpoint digest; if at least one survivor matches, it alone supplies
// the data, re-broadcast along a binomial tree to just the places that
// lost (or diverged from) the checkpointed value — no snapshot loads at
// all. With no valid survivor, every place concurrently loads a duplicate
// (paper section IV-B2).
func (d *dup[T]) RestoreSnapshot(s *snapshot.Snapshot) error {
	// The logical value rewinds to the checkpoint, so the version must move:
	// worker-side kernel caches may hold the diverged pre-restore content
	// under the current version.
	d.ver++
	comp, _, err := compressorForMeta(s.Meta())
	if err != nil {
		return fmt.Errorf("dist: %s restore meta: %w", d.name, err)
	}
	valid := make([]bool, d.pg.Size())
	if len(d.retained) == d.pg.Size() {
		reg := d.rt.Obs()
		kept := reg.Counter("dist.restore.partial.kept")
		keptBytes := reg.Counter("dist.restore.partial.bytes.kept")
		err := apgas.ForEachPlace(d.rt, d.pg, func(ctx *apgas.Ctx, idx int) {
			if !d.retained[idx] {
				return
			}
			d.retained[idx] = false
			local := d.plh.Local(ctx)
			if d.kind.fits(local) && d.kind.validate(ctx, s, local, comp) {
				valid[idx] = true
				kept.Inc()
				keptBytes.Add(int64(d.kind.encodedSize(local)))
			}
		})
		if err != nil {
			return err
		}
	}
	src := slices.Index(valid, true)
	if src < 0 {
		return apgas.ForEachPlace(d.rt, d.pg, func(ctx *apgas.Ctx, idx int) {
			if idx < len(d.retained) {
				d.retained[idx] = false
			}
			data, err := s.Load(ctx, 0, 0)
			if err != nil {
				apgas.Throw(err)
			}
			if err := d.kind.decodeInto(d.plh.Local(ctx), data, comp); err != nil {
				apgas.Throw(fmt.Errorf("dist: %s restore: %w", d.name, err))
			}
		})
	}
	idxs := []int{src}
	for idx, ok := range valid {
		if !ok {
			idxs = append(idxs, idx)
		}
	}
	if len(idxs) == 1 {
		return nil
	}
	d.rt.Obs().Counter("dist.restore.partial.bcast").Add(int64(len(idxs) - 1))
	return d.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(d.pg[src], func(c *apgas.Ctx) {
			d.bcast(c, idxs, d.kind.clone(d.plh.Local(c)))
		})
	})
}
