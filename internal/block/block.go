// Package block implements matrix blocks and per-place block containers
// (the counterpart of x10.matrix.block.MatrixBlock and
// x10.matrix.distblock.BlockSet). A DistBlockMatrix assigns one or more
// blocks to each place; letting a place hold a *set* of blocks is what
// enables the shrink restoration mode to remap existing blocks onto the
// surviving places without repartitioning the matrix (paper section III-A).
package block

import (
	"fmt"

	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/grid"
	"github.com/rgml/rgml/internal/la"
)

// Kind discriminates a block's storage format.
type Kind uint8

const (
	// Dense blocks store a column-major la.DenseMatrix.
	Dense Kind = iota
	// Sparse blocks store a compressed-sparse-row la.SparseCSR: the
	// matrices are row-striped, so a block's mat-vec is one gather per
	// output row.
	Sparse
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Dense:
		return "dense"
	case Sparse:
		return "sparse"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// MatrixBlock is one rectangular tile of a distributed matrix: its
// position in the data grid, its origin in absolute matrix coordinates,
// and its payload in dense or sparse form.
type MatrixBlock struct {
	RB, CB     int // block coordinates in the data grid
	Row0, Col0 int // origin in matrix coordinates
	Rows, Cols int

	// Exactly one of Dense / Sparse is non-nil, per Kind.
	Dense  *la.DenseMatrix
	Sparse *la.SparseCSR

	// Ver is the block's content version for the kernel data plane:
	// every mutation of the payload bumps it (Touch), and a worker that
	// already holds the block at this version is not shipped it again.
	// Code that writes into Dense/Sparse directly must call Touch (or the
	// owning matrix's MarkDirty), or worker kernels keep computing on the
	// stale copy.
	Ver uint64
	// Retained marks a block whose payload survived a Remake on a
	// surviving place: RestoreSnapshot validates it against the snapshot
	// digest instead of re-loading it, then clears the flag.
	Retained bool
}

// Touch records a payload mutation, so the block is re-shipped to the
// worker that computes on it.
func (b *MatrixBlock) Touch() { b.Ver++ }

// NewDenseBlock allocates a zeroed dense block for grid position (rb, cb)
// of g.
func NewDenseBlock(g *grid.Grid, rb, cb int) *MatrixBlock {
	r0, c0 := g.BlockOrigin(rb, cb)
	rows, cols := g.BlockDims(rb, cb)
	return &MatrixBlock{
		RB: rb, CB: cb, Row0: r0, Col0: c0, Rows: rows, Cols: cols,
		Dense: la.NewDense(rows, cols),
	}
}

// NewSparseBlock allocates an empty sparse block for grid position (rb, cb)
// of g.
func NewSparseBlock(g *grid.Grid, rb, cb int) *MatrixBlock {
	r0, c0 := g.BlockOrigin(rb, cb)
	rows, cols := g.BlockDims(rb, cb)
	return &MatrixBlock{
		RB: rb, CB: cb, Row0: r0, Col0: c0, Rows: rows, Cols: cols,
		Sparse: la.NewSparseCSR(rows, cols),
	}
}

// Kind returns the block's storage format.
func (b *MatrixBlock) Kind() Kind {
	if b.Dense != nil {
		return Dense
	}
	return Sparse
}

// Clone returns an independent deep copy.
func (b *MatrixBlock) Clone() *MatrixBlock {
	out := *b
	if b.Dense != nil {
		out.Dense = b.Dense.Clone()
	}
	if b.Sparse != nil {
		out.Sparse = b.Sparse.Clone()
	}
	return &out
}

// Bytes returns the payload size for network-cost accounting.
func (b *MatrixBlock) Bytes() int {
	if b.Dense != nil {
		return b.Dense.Bytes()
	}
	return b.Sparse.Bytes()
}

// At returns element (i, j) in block-local coordinates.
func (b *MatrixBlock) At(i, j int) float64 {
	if b.Dense != nil {
		return b.Dense.At(i, j)
	}
	return b.Sparse.At(i, j)
}

// MultVecAssign computes dst = B · xCols, overwriting dst (length
// b.Rows), where xCols holds the block's columns of x (x[Col0:Col0+Cols]).
// It neither allocates nor accumulates, so hot iteration paths can reuse
// per-block scratch vectors across calls.
func (b *MatrixBlock) MultVecAssign(xCols, dst la.Vector) {
	if b.Dense != nil {
		b.Dense.MultVec(xCols, dst)
	} else {
		b.Sparse.MultVec(xCols, dst)
	}
}

// TransMultVecAssign computes dst = Bᵀ · xRows, overwriting dst (length
// b.Cols), where xRows holds the block's rows of x (x[Row0:Row0+Rows]),
// with no allocation.
func (b *MatrixBlock) TransMultVecAssign(xRows, dst la.Vector) {
	if b.Dense != nil {
		b.Dense.TransMultVec(xRows, dst)
	} else {
		b.Sparse.TransMultVec(xRows, dst)
	}
}

// Scale multiplies the block's payload by a.
func (b *MatrixBlock) Scale(a float64) {
	if b.Dense != nil {
		b.Dense.Scale(a)
	} else {
		b.Sparse.Scale(a)
	}
	b.Touch()
}

// String implements fmt.Stringer.
func (b *MatrixBlock) String() string {
	return fmt.Sprintf("block(%d,%d %dx%d@%d,%d %s)", b.RB, b.CB, b.Rows, b.Cols, b.Row0, b.Col0, b.Kind())
}

// EncodedSize returns the exact wire size of the block, so encode buffers
// can be allocated (or drawn from the pool) pre-sized with no regrowth.
func (b *MatrixBlock) EncodedSize() int {
	n := 7 * codec.SizeInt
	if b.Dense != nil {
		return n + codec.SizeFloat64s(len(b.Dense.Data))
	}
	return n + codec.SizeInts(len(b.Sparse.RowPtr)) +
		codec.SizeInts(len(b.Sparse.ColIdx)) +
		codec.SizeFloat64s(len(b.Sparse.Vals))
}

// EncodeInto serializes the block to the snapshot wire format through e,
// which checksums each chunk of the payload right after writing it (the
// snapshot fast path: the CRC-32C reads bytes still in cache).
func (b *MatrixBlock) EncodeInto(e *codec.Encoder) {
	e.PutInt(int(b.Kind()))
	e.PutInt(b.RB)
	e.PutInt(b.CB)
	e.PutInt(b.Row0)
	e.PutInt(b.Col0)
	e.PutInt(b.Rows)
	e.PutInt(b.Cols)
	if b.Dense != nil {
		e.PutFloat64s(b.Dense.Data)
	} else {
		e.PutInts(b.Sparse.RowPtr)
		e.PutInts(b.Sparse.ColIdx)
		e.PutFloat64s(b.Sparse.Vals)
	}
}

// Encode serializes the block to the snapshot wire format into a fresh
// exactly-sized buffer.
func (b *MatrixBlock) Encode() []byte {
	e := codec.WrapEncoder(make([]byte, 0, b.EncodedSize()))
	b.EncodeInto(&e)
	return e.Bytes()
}

// Decode deserializes a block from the snapshot wire format.
func Decode(data []byte) (*MatrixBlock, error) {
	return DecodeC(data, nil)
}

// DecodeC is Decode for a snapshot whose bulk frames were written through
// comp (nil for the legacy uncompressed format). The block header is
// always fixed-width; only the payload frames route through comp.
func DecodeC(data []byte, comp codec.Compressor) (*MatrixBlock, error) {
	var (
		b    MatrixBlock
		kind int
		err  error
	)
	rd := data
	for _, dst := range []*int{&kind, &b.RB, &b.CB, &b.Row0, &b.Col0, &b.Rows, &b.Cols} {
		if *dst, rd, err = codec.Int(rd); err != nil {
			return nil, fmt.Errorf("block: decode header: %w", err)
		}
	}
	switch Kind(kind) {
	case Dense:
		data, rd, err := codec.Float64sIntoC(comp, nil, rd)
		if err != nil {
			return nil, fmt.Errorf("block: decode dense payload: %w", err)
		}
		if len(data) != b.Rows*b.Cols {
			return nil, fmt.Errorf("block: dense payload %d for %dx%d", len(data), b.Rows, b.Cols)
		}
		_ = rd
		b.Dense = la.NewDenseFrom(b.Rows, b.Cols, data)
	case Sparse:
		b.Sparse = &la.SparseCSR{Rows: b.Rows, Cols: b.Cols}
		if err := decodeSparse(b.Sparse, rd, comp); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("block: unknown kind %d", kind)
	}
	return &b, nil
}

// DecodeInto deserializes a block of the same kind and shape as dst from
// the snapshot wire format, overwriting dst's existing payload storage
// instead of allocating fresh slices (sparse index arrays regrow only
// when the decoded block holds more nonzeros than dst has capacity for).
// Same-grid restores use it so the first checkpoint after a restore
// re-encodes from the same allocations the previous cycle pooled.
func DecodeInto(dst *MatrixBlock, data []byte) error {
	return DecodeIntoC(dst, data, nil)
}

// DecodeIntoC is DecodeInto for a snapshot whose bulk frames were written
// through comp (nil for the legacy uncompressed format).
func DecodeIntoC(dst *MatrixBlock, data []byte, comp codec.Compressor) error {
	var (
		h    MatrixBlock
		kind int
		err  error
	)
	rd := data
	for _, p := range []*int{&kind, &h.RB, &h.CB, &h.Row0, &h.Col0, &h.Rows, &h.Cols} {
		if *p, rd, err = codec.Int(rd); err != nil {
			return fmt.Errorf("block: decode header: %w", err)
		}
	}
	if Kind(kind) != dst.Kind() || h.Rows != dst.Rows || h.Cols != dst.Cols {
		return fmt.Errorf("block: decode %v %dx%d into %v %dx%d",
			Kind(kind), h.Rows, h.Cols, dst.Kind(), dst.Rows, dst.Cols)
	}
	switch Kind(kind) {
	case Dense:
		vals, _, err := codec.Float64sIntoC(comp, dst.Dense.Data, rd)
		if err != nil {
			return fmt.Errorf("block: decode dense payload: %w", err)
		}
		if len(vals) != dst.Rows*dst.Cols {
			return fmt.Errorf("block: dense payload %d for %dx%d", len(vals), dst.Rows, dst.Cols)
		}
		dst.Dense.Data = vals
	case Sparse:
		if err := decodeSparse(dst.Sparse, rd, comp); err != nil {
			return err
		}
	}
	dst.Touch()
	return nil
}

// decodeSparse decodes a CSR payload (row pointers, column indices,
// values) into sp, whose Rows/Cols are already set, reusing sp's slices
// as storage where their capacity allows; the slices are swapped in only
// on success.
func decodeSparse(sp *la.SparseCSR, rd []byte, comp codec.Compressor) error {
	rowPtr, rd, err := codec.IntsIntoC(comp, sp.RowPtr, rd)
	if err != nil {
		return fmt.Errorf("block: decode rowptr: %w", err)
	}
	colIdx, rd, err := codec.IntsIntoC(comp, sp.ColIdx, rd)
	if err != nil {
		return fmt.Errorf("block: decode colidx: %w", err)
	}
	vals, _, err := codec.Float64sIntoC(comp, sp.Vals, rd)
	if err != nil {
		return fmt.Errorf("block: decode vals: %w", err)
	}
	if len(rowPtr) != sp.Rows+1 || len(colIdx) != len(vals) {
		return fmt.Errorf("block: inconsistent sparse payload")
	}
	sp.RowPtr, sp.ColIdx, sp.Vals = rowPtr, colIdx, vals
	return nil
}
