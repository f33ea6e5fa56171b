package dist

import (
	"fmt"
	"math"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/grid"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
)

// DistBlockMatrix partitions a matrix into a data grid of blocks and
// assigns one or more blocks to each place of a group
// (x10.matrix.distblock.DistBlockMatrix). Holding a *set* of blocks per
// place is what allows the shrink restoration mode to remap existing
// blocks onto surviving places without repartitioning (paper section
// III-A); the trade-off against repartitioning is Fig. 1-b vs 1-c.
type DistBlockMatrix struct {
	rt         *apgas.Runtime
	kind       block.Kind
	rows, cols int
	g          *grid.Grid
	dg         *grid.DistGrid
	pg         apgas.PlaceGroup
	// bppRow is the make-time row-blocks-per-place-row ratio; the
	// rebalance policy preserves it when repartitioning for a new group
	// size (Fig. 1-c keeps two blocks per place as places shrink).
	bppRow int
	plh    apgas.PlaceLocalHandle[*block.BlockSet]

	// scratch holds each place's reusable buffers for the collectives
	// (blockScratch), built on first use and rebuilt after a Remake: its
	// Valid is the only "built" flag. Collective operations on one matrix
	// must not overlap (GML's sequential-style programming model
	// guarantees this).
	scratch apgas.PlaceLocalHandle[*blockScratch]

	// compressible carries the object's lossy-checkpoint opt-in
	// (AllowLossyCheckpoint).
	compressible
}

// MakeDistBlockMatrix creates a zeroed rows×cols matrix cut into
// rowBlocks×colBlocks blocks, distributed over a rowPlaces×colPlaces place
// grid drawn from pg (the factory DistBlockMatrix.make of paper Listing 2,
// extended with an arbitrary place group per section IV-A). rowBlocks must
// be divisible by rowPlaces and colBlocks by colPlaces so that every place
// receives the same number of blocks.
func MakeDistBlockMatrix(rt *apgas.Runtime, kind block.Kind, rows, cols, rowBlocks, colBlocks, rowPlaces, colPlaces int, pg apgas.PlaceGroup) (*DistBlockMatrix, error) {
	if rowPlaces*colPlaces != pg.Size() {
		return nil, fmt.Errorf("dist: place grid %dx%d does not cover %d places",
			rowPlaces, colPlaces, pg.Size())
	}
	if rowPlaces < 1 || colPlaces < 1 || rowBlocks%rowPlaces != 0 || colBlocks%colPlaces != 0 {
		return nil, fmt.Errorf("dist: block grid %dx%d not divisible by place grid %dx%d",
			rowBlocks, colBlocks, rowPlaces, colPlaces)
	}
	g, err := grid.New(rows, cols, rowBlocks, colBlocks)
	if err != nil {
		return nil, err
	}
	dg, err := grid.NewDistGrid(g, rowPlaces, colPlaces)
	if err != nil {
		return nil, err
	}
	m := &DistBlockMatrix{
		rt: rt, kind: kind, rows: rows, cols: cols,
		g: g, dg: dg, pg: pg.Clone(),
		bppRow: rowBlocks / rowPlaces,
	}
	if err := m.alloc(); err != nil {
		return nil, err
	}
	return m, nil
}

// alloc (re)allocates the per-place block sets for the current grid and
// distribution.
func (m *DistBlockMatrix) alloc() error {
	return m.allocReusing(apgas.PlaceLocalHandle[*block.BlockSet]{}, nil)
}

// allocReusing allocates the per-place block sets, moving blocks out of
// old (the handle from before a Remake) wherever a surviving place still
// owns the same block of the same grid. Retained blocks keep their
// payload allocations and are flagged for RestoreSnapshot, which
// validates them against the snapshot instead of re-loading them. Fresh
// places, and blocks whose owner changed, get zeroed blocks as before.
// A retained block is the same object at the same place, so the new
// handle inherits the copy its worker body holds (Inherit): the first
// MultVec after a restore ships a survivor only what changed — a block
// the restore reloaded has moved its version (DecodeIntoC touches it).
func (m *DistBlockMatrix) allocReusing(old apgas.PlaceLocalHandle[*block.BlockSet], retained *obs.Counter) error {
	reuse := old.Valid()
	keep := make([]map[int64]uint64, m.pg.Size())
	plh, err := apgas.NewPlaceLocalHandle(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) *block.BlockSet {
		bs := block.NewBlockSet()
		var prev *block.BlockSet
		if reuse {
			prev, _ = old.TryLocal(ctx)
		}
		for _, id := range m.dg.BlocksOf(idx) {
			rb, cb := m.g.BlockCoords(id)
			if prev != nil {
				if ob := prev.Find(id); ob != nil && ob.RB == rb && ob.CB == cb {
					ob.Retained = true
					retained.Inc()
					bs.Add(id, ob)
					if ctx.WorkerBody() {
						if keep[idx] == nil {
							keep[idx] = make(map[int64]uint64)
						}
						keep[idx][int64(id)] = ob.Ver
					}
					continue
				}
			}
			if m.kind == block.Dense {
				bs.Add(id, block.NewDenseBlock(m.g, rb, cb))
			} else {
				bs.Add(id, block.NewSparseBlock(m.g, rb, cb))
			}
		}
		return bs
	})
	if err != nil {
		return err
	}
	for idx, vers := range keep {
		plh.Inherit(old, m.pg[idx], vers)
	}
	m.plh = plh
	return nil
}

// Rows returns the matrix row count.
func (m *DistBlockMatrix) Rows() int { return m.rows }

// Cols returns the matrix column count.
func (m *DistBlockMatrix) Cols() int { return m.cols }

// Kind returns the block storage format.
func (m *DistBlockMatrix) Kind() block.Kind { return m.kind }

// Grid returns the current data grid.
func (m *DistBlockMatrix) Grid() *grid.Grid { return m.g }

// Dist returns the current block→place mapping.
func (m *DistBlockMatrix) Dist() *grid.DistGrid { return m.dg }

// Group returns the place group the matrix is distributed over.
func (m *DistBlockMatrix) Group() apgas.PlaceGroup { return m.pg }

// LocalBlocks returns the calling place's block set. Code that writes
// into the blocks' payloads directly must bump their versions — either
// per block via MatrixBlock.Touch or wholesale via MarkDirty — or worker
// kernels keep computing on the copies shipped at the old versions.
func (m *DistBlockMatrix) LocalBlocks(ctx *apgas.Ctx) *block.BlockSet { return m.plh.Local(ctx) }

// MarkDirty bumps every block's content version, so the next worker
// kernel that reads the matrix re-ships every block. It is the coarse
// hook for code that mutated blocks through LocalBlocks without calling
// Touch on each one.
func (m *DistBlockMatrix) MarkDirty() error {
	return apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		m.plh.Local(ctx).Each(func(id int, b *block.MatrixBlock) { b.Touch() })
	})
}

// Bytes returns the total payload bytes of all blocks (via the grid, not a
// collective: dense payloads are fully determined by geometry; for sparse
// matrices it sums the current nonzeros and requires a collective).
func (m *DistBlockMatrix) Bytes() (int, error) {
	total := 0
	counts := make([]int, m.pg.Size())
	err := apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		counts[idx] = m.plh.Local(ctx).Bytes()
	})
	if err != nil {
		return 0, err
	}
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// InitDense fills a dense matrix with fn(i, j) evaluated at global
// coordinates by each owning place. Because fn sees global coordinates,
// the matrix content is independent of the distribution — a property the
// redistribution tests rely on.
func (m *DistBlockMatrix) InitDense(fn func(i, j int) float64) error {
	if m.kind != block.Dense {
		return fmt.Errorf("dist: InitDense on a %v matrix", m.kind)
	}
	return apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		m.plh.Local(ctx).Each(func(id int, b *block.MatrixBlock) {
			for j := 0; j < b.Cols; j++ {
				for i := 0; i < b.Rows; i++ {
					b.Dense.Set(i, j, fn(b.Row0+i, b.Col0+j))
				}
			}
			b.Touch()
		})
	})
}

// InitSparseColumns fills a sparse matrix column by column: fn(j) returns
// the global row indices and values of column j's nonzeros. Each place
// evaluates fn for the columns of its blocks and keeps the entries falling
// into its row ranges, so the content is again distribution-independent.
func (m *DistBlockMatrix) InitSparseColumns(fn func(j int) (rows []int, vals []float64)) error {
	if m.kind != block.Sparse {
		return fmt.Errorf("dist: InitSparseColumns on a %v matrix", m.kind)
	}
	return apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		bs := m.plh.Local(ctx)
		// Group this place's blocks by column-block to evaluate fn once
		// per (column-block, column) pair.
		byCB := make(map[int][]*block.MatrixBlock)
		bs.Each(func(id int, b *block.MatrixBlock) {
			byCB[b.CB] = append(byCB[b.CB], b)
		})
		for cb, blocks := range byCB {
			c0 := m.g.ColOffsets[cb]
			c1 := m.g.ColOffsets[cb+1]
			triplets := make(map[*block.MatrixBlock][]la.Triplet)
			for j := c0; j < c1; j++ {
				rows, vals := fn(j)
				if len(rows) != len(vals) {
					apgas.Throw(fmt.Errorf("dist: InitSparseColumns(%d): %d rows, %d vals", j, len(rows), len(vals)))
				}
				for k, i := range rows {
					for _, b := range blocks {
						if i >= b.Row0 && i < b.Row0+b.Rows {
							triplets[b] = append(triplets[b], la.Triplet{
								Row: i - b.Row0, Col: j - b.Col0, Val: vals[k],
							})
							break
						}
					}
				}
			}
			for _, b := range blocks {
				b.Sparse = la.NewSparseCSRFromTriplets(b.Rows, b.Cols, triplets[b])
				b.Touch()
			}
		}
	})
}

// Scale multiplies every element by a, fanning each place's blocks
// across the kernel worker pool.
func (m *DistBlockMatrix) Scale(a float64) error {
	return apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		m.plh.Local(ctx).EachPar(func(id int, b *block.MatrixBlock) { b.Scale(a) })
	})
}

// ToDense gathers the whole matrix into one local dense matrix at the main
// activity (for verification and tests; not a scalable operation).
func (m *DistBlockMatrix) ToDense() (*la.DenseMatrix, error) {
	out := la.NewDense(m.rows, m.cols)
	err := m.rt.Finish(func(ctx *apgas.Ctx) {
		for idx := 0; idx < m.pg.Size(); idx++ {
			encoded := apgas.Eval(ctx, m.pg[idx], func(c *apgas.Ctx) [][]byte {
				var out [][]byte
				m.plh.Local(c).Each(func(id int, b *block.MatrixBlock) {
					out = append(out, b.Encode())
				})
				return out
			})
			for _, enc := range encoded {
				b, err := block.Decode(enc)
				if err != nil {
					apgas.Throw(err)
				}
				if b.Dense != nil {
					out.PasteSub(b.Row0, b.Col0, b.Dense)
				} else {
					out.PasteSub(b.Row0, b.Col0, b.Sparse.ToDense())
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// blockScratch is one place's reusable buffers for the matrix's
// collectives: the per-block partials of MultVec and TransMultVec (vec,
// keyed as distblockops.go describes) and of TransMultMatrix (mat), and
// the maps the up-sweep gathers each product's partials into (vecUp,
// matUp).
type blockScratch struct {
	vec   map[int]la.Vector
	mat   map[int]*la.DenseMatrix
	vecUp map[int]la.Vector
	matUp map[int]*la.DenseMatrix
}

// buffers returns the matrix's per-place scratch, building it on first use.
func (m *DistBlockMatrix) buffers() (apgas.PlaceLocalHandle[*blockScratch], error) {
	if !m.scratch.Valid() {
		plh, err := apgas.NewPlaceLocalHandle(m.rt, m.pg, func(*apgas.Ctx, int) *blockScratch {
			return &blockScratch{
				vec:   make(map[int]la.Vector),
				mat:   make(map[int]*la.DenseMatrix),
				vecUp: make(map[int]la.Vector),
				matUp: make(map[int]*la.DenseMatrix),
			}
		})
		if err != nil {
			return plh, err
		}
		m.scratch = plh
	}
	return m.scratch, nil
}

// FrobNorm returns the Frobenius norm, with per-block partial sums reduced
// in canonical block order (deterministic across redistributions). The
// per-block sums of squares run on the kernel engine, and the blocks of
// one place fan across it.
func (m *DistBlockMatrix) FrobNorm() (float64, error) {
	partials := make([]float64, m.g.NumBlocks())
	err := apgas.ForEachPlace(m.rt, m.pg, func(ctx *apgas.Ctx, idx int) {
		m.plh.Local(ctx).EachPar(func(id int, b *block.MatrixBlock) {
			var s float64
			if b.Dense != nil {
				s = la.SumSquares(b.Dense.Data)
			} else {
				s = la.SumSquares(b.Sparse.Vals)
			}
			partials[id] = s
			ctx.Transfer(m.pg[0], 8)
		})
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, p := range partials {
		sum += p
	}
	return math.Sqrt(sum), nil
}

// Remake redistributes the matrix (zeroed) over a new place group (paper
// section IV-A). With keepGrid the data grid is preserved and the existing
// blocks are remapped round-robin onto the new group — the fast path that
// can leave load imbalance (Fig. 1-b, shrink mode). Without keepGrid the
// matrix is repartitioned: the row-block count is rescaled to keep the
// make-time blocks-per-place ratio and blocks are assigned contiguously —
// even load, but restores must then reassemble blocks from overlaps
// (Fig. 1-c, shrink-rebalance mode).
func (m *DistBlockMatrix) Remake(newPG apgas.PlaceGroup, keepGrid bool) error {
	if newPG.Size() == 0 {
		return fmt.Errorf("dist: DistBlockMatrix.Remake: empty place group")
	}
	// With keepGrid, blocks that stay at a surviving place are moved into
	// the new handle instead of being re-zeroed (allocReusing): their
	// payloads survive for RestoreSnapshot to validate, and the restore
	// that follows a Remake overwrites whatever it does not validate. The
	// old handle is destroyed only after the new one is built.
	oldPLH, oldPG := m.plh, m.pg
	if !keepGrid {
		oldPLH = apgas.PlaceLocalHandle[*block.BlockSet]{}
		m.plh.Destroy(m.pg)
	}
	m.scratch.Destroy(m.pg)
	m.scratch = apgas.PlaceLocalHandle[*blockScratch]{}
	if keepGrid {
		dg, err := grid.Remap(m.g, newPG.Size())
		if err != nil {
			return err
		}
		m.dg = dg
	} else {
		rowBlocks := m.bppRow * newPG.Size()
		if rowBlocks > m.rows {
			rowBlocks = m.rows
		}
		if rowBlocks < newPG.Size() {
			rowBlocks = newPG.Size()
		}
		g, err := grid.New(m.rows, m.cols, rowBlocks, m.g.ColBlocks)
		if err != nil {
			return err
		}
		dg, err := grid.NewDistGrid(g, newPG.Size(), 1)
		if err != nil {
			return err
		}
		m.g = g
		m.dg = dg
	}
	m.pg = newPG.Clone()
	reg := m.rt.Obs()
	if err := m.allocReusing(oldPLH, reg.Counter("dist.remake.blocks.retained")); err != nil {
		return err
	}
	if oldPLH.Valid() {
		oldPLH.Destroy(oldPG)
	}
	reg.Counter("dist.matrix.remakes").Inc()
	kept := int64(0)
	if keepGrid {
		kept = 1
	}
	reg.Trace("dist.matrix.remake", int64(newPG.Size()), kept)
	return nil
}
