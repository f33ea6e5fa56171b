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
// copy (paper Listing 2, line 17). Group, Local, MarkDirty, AllApply,
// Root, Sync, Remake and the snapshot methods are the duplicated-object
// core's (dup).
type DupVector struct {
	dup[la.Vector]
	n int
}

// MakeDupVector creates a zeroed duplicated vector of length n over pg
// (the factory method DupVector.make).
func MakeDupVector(rt *apgas.Runtime, n int, pg apgas.PlaceGroup) (*DupVector, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: MakeDupVector(%d): %w", n, ErrShapeMismatch)
	}
	d, err := makeDup[la.Vector](rt, "DupVector", vecKind(n), pg)
	if err != nil {
		return nil, err
	}
	return &DupVector{dup: d, n: n}, nil
}

// Size returns the vector length.
func (v *DupVector) Size() int { return v.n }

// Init sets every duplicate to the values of fn(i), identically at every
// place (no communication: fn is evaluated redundantly, which is how GML
// initializes duplicated objects deterministically).
func (v *DupVector) Init(fn func(i int) float64) error {
	return v.AllApply(func(local la.Vector) {
		for i := range local {
			local[i] = fn(i)
		}
	})
}

// ZipAll runs fn(va, vb) on the duplicates of v and w at every place of
// their shared group. Both vectors must be duplicated over the same group.
// fn must be deterministic so the duplicates stay identical — the GML
// idiom for duplicated-operand arithmetic (e.g. w += α·p in CG).
func (v *DupVector) ZipAll(w *DupVector, fn func(a, b la.Vector)) error {
	if !v.pg.Equal(w.pg) {
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
	if !v.pg.Equal(w.pg) {
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

// vecKind is the DupVector payload: a vector of the given length,
// checkpointed through saveVector.
type vecKind int

func (n vecKind) alloc() la.Vector                    { return la.NewVector(int(n)) }
func (n vecKind) fits(v la.Vector) bool               { return len(v) == int(n) }
func (vecKind) clone(v la.Vector) la.Vector           { return v.Clone() }
func (vecKind) copyInto(dst, src la.Vector) la.Vector { return dst.CopyFrom(src) }
func (vecKind) bytes(v la.Vector) int                 { return v.Bytes() }
func (vecKind) encodedSize(v la.Vector) int           { return codec.SizeFloat64s(len(v)) }

func (vecKind) save(c *apgas.Ctx, s *snapshot.Snapshot, v la.Vector, comp codec.Compressor) {
	saveVector(c, s, 0, v, comp)
}

func (vecKind) validate(c *apgas.Ctx, s *snapshot.Snapshot, v la.Vector, comp codec.Compressor) bool {
	return validateRetainedVector(c, s, 0, 0, v, comp)
}

func (n vecKind) decodeInto(dst la.Vector, data []byte, comp codec.Compressor) error {
	vec, err := decodeVectorInto(dst, data, comp)
	if err != nil {
		return err
	}
	if len(vec) != int(n) {
		return fmt.Errorf("length %d, want %d", len(vec), int(n))
	}
	dst.CopyFrom(vec)
	return nil
}
