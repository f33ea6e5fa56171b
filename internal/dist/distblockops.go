package dist

import (
	"fmt"
	"maps"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/la"
)

// Collective matrix-vector operations.
//
// Both operations are two-phase: every place first computes one partial
// vector per *block* it owns, then the consumers combine the per-block
// partials in canonical block order (ascending row-block, then ascending
// column-block). Reducing per block — rather than per place — makes the
// floating-point summation order independent of the block→place mapping,
// so a matrix redistributed by any restoration mode still produces
// bit-identical results. The recovery tests verify exactly that.
//
// Phase 1 fans each place's blocks across the intra-place kernel pool
// (block partials are disjoint, so any interleaving yields the same
// bits) inside a registered kernel (kernels.go), the one body every
// backend runs, and the per-block scratch vectors live in a
// place-local map reused across calls. The map serves both collectives:
// MultVec partials (length block-rows) sit under even keys, TransMultVec
// partials (length block-cols) under odd keys, and the gathered-x buffer
// under xbufKey, so the per-iteration MultVec/TransMultVec pair of the
// solvers never reallocates.

// rowPartKey returns block id's scratch key for M·x partials.
func rowPartKey(id int) int { return 2 * id }

// colPartKey returns block id's scratch key for Mᵀ·x partials.
func colPartKey(id int) int { return 2*id + 1 }

// xbufKey indexes the place-local gathered-x buffer of TransMultVec.
const xbufKey = -1

// MultVec computes y = M·x where x is duplicated and y is distributed over
// the same group (paper Listing 2: GP.mult(G, P)).
func (m *DistBlockMatrix) MultVec(x *DupVector, y *DistVector) error {
	if x.Size() != m.cols || y.Size() != m.rows {
		return fmt.Errorf("dist: MultVec (%dx%d)·%d -> %d: %w", m.rows, m.cols, x.Size(), y.Size(), ErrShapeMismatch)
	}
	if !m.pg.Equal(x.Group()) || !m.pg.Equal(y.Group()) {
		return fmt.Errorf("dist: MultVec: %w", ErrGroupMismatch)
	}
	y.MarkDirty()
	scratch, err := m.buffers()
	if err != nil {
		return err
	}

	// Phase 1: per-block partials B_{rb,cb} · x[cols(cb)] at each owner.
	// Scratch vectors are sized serially (map writes), then the place's
	// kernel overwrites each block's partial. A kernel failure is thrown
	// into the finish and returned: a pure kernel would fail identically
	// on a re-run.
	err = apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		xloc := x.Local(ctx)
		part := scratch.Local(ctx).vec
		bs := m.plh.Local(ctx)
		bs.Each(func(id int, b *block.MatrixBlock) {
			if len(part[rowPartKey(id)]) != b.Rows {
				part[rowPartKey(id)] = la.NewVector(b.Rows)
			}
		})
		apgas.Throw(m.matVecKernel(ctx, multVecKernelName, kernel.Input{
			Handle: x.plh.Handle(),
			Key:    0,
			Ver:    x.ver,
			Encode: func() []byte { return wireVector(xloc) },
			Obj:    xloc,
		}, part, rowPartKey, bs))
	})
	if err != nil {
		return err
	}

	// Phase 2: each y owner combines the overlapping block partials in
	// canonical order.
	g := m.g
	return apgas.ForEachPlace(m.rt, y.pg, func(ctx *apgas.Ctx, idx int) {
		seg := y.Local(ctx).Zero()
		off, size := y.SegmentOf(idx)
		end := off + size
		firstRB := g.FindRowBlock(off)
		lastRB := g.FindRowBlock(end - 1)
		for rb := firstRB; rb <= lastRB; rb++ {
			rbOff := g.RowOffsets[rb]
			lo := max(off, rbOff)
			hi := min(end, g.RowOffsets[rb+1])
			for cb := 0; cb < g.ColBlocks; cb++ {
				id := g.BlockID(rb, cb)
				ownerIdx := m.dg.PlaceOf[id]
				owner := m.pg[ownerIdx]
				origin := ctx.Here
				var slice la.Vector
				if owner.ID == ctx.Here.ID {
					slice = scratch.Local(ctx).vec[rowPartKey(id)][lo-rbOff : hi-rbOff]
				} else {
					slice = apgas.Eval(ctx, owner, func(c *apgas.Ctx) la.Vector {
						s := scratch.Local(c).vec[rowPartKey(id)][lo-rbOff : hi-rbOff].Clone()
						c.Transfer(origin, s.Bytes())
						return s
					})
				}
				seg[lo-off : hi-off].Add(slice)
			}
		}
	})
}

// TransMultVec computes z = Mᵀ·x where x is distributed and z is
// duplicated over the same group (the X·w / Xᵀ·r pattern of the LinReg and
// LogReg benchmarks). The per-block partials climb a binomial tree to the
// group root — concatenation only, no arithmetic, so the combine order
// stays canonical and redistribution-independent — where they are reduced
// in canonical block order; the result is then broadcast (another
// binomial tree, inside Sync), leaving every duplicate of z consistent.
func (m *DistBlockMatrix) TransMultVec(x *DistVector, z *DupVector) error {
	if x.Size() != m.rows || z.Size() != m.cols {
		return fmt.Errorf("dist: TransMultVec (%dx%d)ᵀ·%d -> %d: %w", m.rows, m.cols, x.Size(), z.Size(), ErrShapeMismatch)
	}
	if !m.pg.Equal(x.Group()) || !m.pg.Equal(z.Group()) {
		return fmt.Errorf("dist: TransMultVec: %w", ErrGroupMismatch)
	}
	z.MarkDirty()
	scratch, err := m.buffers()
	if err != nil {
		return err
	}

	// Phase 1: gather the needed x rows, then compute per-block partials
	// B_{rb,cb}ᵀ · x[rows(rb)] in the place's kernel. The place's up-sweep
	// map is seeded with its own partials for phase 2.
	err = apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		sc := scratch.Local(ctx)
		clear(sc.vecUp)
		bs := m.plh.Local(ctx)
		if bs.Len() == 0 {
			return
		}
		// Bounding row range of this place's blocks.
		minR, maxR := m.rows, 0
		bs.Each(func(id int, b *block.MatrixBlock) {
			if b.Row0 < minR {
				minR = b.Row0
			}
			if b.Row0+b.Rows > maxR {
				maxR = b.Row0 + b.Rows
			}
		})
		part := sc.vec
		xbuf := part[xbufKey]
		if len(xbuf) != m.rows {
			xbuf = la.NewVector(m.rows)
			part[xbufKey] = xbuf
		}
		for segIdx := 0; segIdx < x.Group().Size(); segIdx++ {
			s0, sz := x.SegmentOf(segIdx)
			lo, hi := max(s0, minR), min(s0+sz, maxR)
			if hi <= lo {
				continue
			}
			owner := x.Group()[segIdx]
			origin := ctx.Here
			var seg la.Vector
			if owner.ID == ctx.Here.ID {
				seg = x.Local(ctx)[lo-s0 : hi-s0]
			} else {
				seg = apgas.Eval(ctx, owner, func(c *apgas.Ctx) la.Vector {
					s := x.Local(c)[lo-s0 : hi-s0].Clone()
					c.Transfer(origin, s.Bytes())
					return s
				})
			}
			copy(xbuf[lo:hi], seg)
		}
		bs.Each(func(id int, b *block.MatrixBlock) {
			if len(part[colPartKey(id)]) != b.Cols {
				part[colPartKey(id)] = la.NewVector(b.Cols)
			}
		})
		// The gathered rows are a versioned input under x's own handle,
		// keyed by their first row: a worker is sent them once per
		// version of x.
		rows := xbuf[minR:maxR]
		apgas.Throw(m.matVecKernel(ctx, transMultVecKernelName, kernel.Input{
			Handle: x.plh.Handle(),
			Key:    int64(minR),
			Ver:    x.ver,
			Encode: func() []byte { return wireVector(rows) },
			Obj:    rows,
		}, part, colPartKey, bs))
		bs.Each(func(id int, b *block.MatrixBlock) {
			sc.vecUp[id] = part[colPartKey(id)]
		})
	})
	if err != nil {
		return err
	}

	// Phase 2: the partials climb to the root, which sums them in
	// canonical block order and broadcasts.
	g := m.g
	err = upSweep(m, func(c *apgas.Ctx) map[int]la.Vector { return scratch.Local(c).vecUp },
		func(root *apgas.Ctx, all map[int]la.Vector) {
			dst := z.Local(root).Zero()
			for cb := 0; cb < g.ColBlocks; cb++ {
				cOff := g.ColOffsets[cb]
				cSz := g.ColSizes[cb]
				for rb := 0; rb < g.RowBlocks; rb++ {
					dst[cOff : cOff+cSz].Add(all[g.BlockID(rb, cb)])
				}
			}
		})
	if err != nil {
		return err
	}
	return z.Sync()
}

// upSweep brings every place's per-block partials (the map up returns at
// a place) to the group root along a binomial tree and hands them to
// reduce there. At stride s every group index divisible by 2s pulls the
// aggregated map of index+s, a clone of each entry; after ⌈log₂P⌉ rounds
// the root holds every block's partial. Entries are only concatenated on
// the way up, so reduce alone fixes the arithmetic's order: the caller's
// canonical block order, independent of the block→place mapping.
func upSweep[T interface {
	Clone() T
	Bytes() int
}](m *DistBlockMatrix, up func(*apgas.Ctx) map[int]T, reduce func(root *apgas.Ctx, all map[int]T)) error {
	p := m.pg.Size()
	for stride := 1; stride < p; stride *= 2 {
		st := stride
		err := apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
			if idx%(2*st) != 0 || idx+st >= p {
				return
			}
			origin := ctx.Here
			got := apgas.Eval(ctx, m.pg[idx+st], func(c *apgas.Ctx) map[int]T {
				sub := up(c)
				out := make(map[int]T, len(sub))
				bytes := 0
				for id, v := range sub {
					out[id] = v.Clone()
					bytes += v.Bytes()
				}
				c.Transfer(origin, bytes)
				return out
			})
			maps.Copy(up(ctx), got)
		})
		if err != nil {
			return err
		}
	}
	return m.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(m.pg[0], func(root *apgas.Ctx) { reduce(root, up(root)) })
	})
}
