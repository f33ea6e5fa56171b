package dist

import (
	"fmt"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/par"
)

// Registered kernels: the dist-layer per-place compute bodies, each
// written once and run through Ctx.ExecKernel on every backend — inside
// the place's worker process where it has one (transport/tcp), in-process
// on the live objects everywhere else. Registration happens at package
// init — before main, therefore before tcp.MaybeWorker turns a re-exec'd
// child into a worker — so coordinator and workers always resolve the same
// names to the same code.
//
// The kernels are pure functions of their task and the entries it names, so
// results are bit-identical wherever they run; vectors cross the wire
// through the exact float64 codec roundtrip, in pooled buffers
// (wireVector) that go back to the pool once sent or decoded.

// wireVector encodes v for the data plane into a pooled buffer; whoever
// ends up owning it (the dispatcher, a Result) returns it with
// codec.PutBuffer.
func wireVector(v la.Vector) []byte {
	return codec.AppendFloat64s(codec.GetBuffer(codec.SizeFloat64s(len(v))), v)
}

// The per-place phase-1 bodies of MultVec and TransMultVec: one partial
// vector per owned block, B·x and Bᵀ·x respectively.
const (
	multVecKernelName      = "dist.block.multvec"
	transMultVecKernelName = "dist.block.transmultvec"
)

func init() {
	apgas.RegisterKernel(multVecKernelName, matVecKernelBody(false))
	apgas.RegisterKernel(transMultVecKernelName, matVecKernelBody(true))
}

// residentBlock is a matrix block as a worker's store holds it: decoded
// once per shipped version, plus one scratch vector that either kernel
// computes the block's partial into before encoding it. One scratch
// serves both because a worker runs one task at a time and wireVector
// copies the partial out before the task returns.
type residentBlock struct {
	*block.MatrixBlock
	scratch la.Vector
}

// partial returns the block's scratch resliced to n elements.
func (rb *residentBlock) partial(n int) la.Vector {
	if cap(rb.scratch) < n {
		rb.scratch = la.NewVector(max(rb.Rows, rb.Cols))
	}
	return rb.scratch[:n]
}

// matVecKernelBody returns the body of dist.block.multvec (trans false:
// B·x per block) or dist.block.transmultvec (trans true: Bᵀ·x per
// block). Refs[0] is the vector operand — an entry holding x from global
// index Refs[0].Key on: the duplicated x whole for MultVec, the place's
// gathered rows of the distributed x for TransMultVec — and Refs[1:] are
// the place's blocks in ascending block-ID order. In-process, Exec.Sink
// holds the caller's scratch vectors, one per block ref in the same order,
// and each partial is written straight into its vector; in a worker, the
// result carries one encoded partial per block ref, in pooled buffers.
// Blocks decode once per shipped version (Entry.Obj caches the object); x
// decodes once per shipped version too — into the previous version's
// storage where the store offers it. Run in-process, the entries are the
// live objects themselves and nothing decodes.
func matVecKernelBody(trans bool) kernel.Func {
	return func(ex *kernel.Exec, t *kernel.Task) (*kernel.Result, error) {
		if len(t.Refs) < 1 {
			return nil, fmt.Errorf("dist: %s: missing x ref", t.Name)
		}
		xe, err := ex.Ref(t.Refs[0])
		if err != nil {
			return nil, err
		}
		xobj, err := xe.Obj(func(data []byte) (any, error) {
			prev, _ := xe.Reuse().(la.Vector)
			v, derr := decodeVectorInto(prev, data, nil)
			if derr != nil {
				return nil, derr
			}
			return v, nil
		})
		if err != nil {
			return nil, err
		}
		x, off := xobj.(la.Vector), int(t.Refs[0].Key)

		// Resolve, decode and bounds-check every block first (serial: Obj
		// takes the entry lock), then fan the arithmetic across the
		// intra-place kernel pool — partials are disjoint, so any
		// interleaving yields the same bits.
		blocks := make([]*block.MatrixBlock, len(t.Refs)-1)
		resident := make([]*residentBlock, len(blocks))
		for i, r := range t.Refs[1:] {
			be, rerr := ex.Ref(r)
			if rerr != nil {
				return nil, rerr
			}
			obj, derr := be.Obj(func(data []byte) (any, error) {
				b, err := block.Decode(data)
				if err != nil {
					return nil, err
				}
				return &residentBlock{MatrixBlock: b}, nil
			})
			if derr != nil {
				return nil, derr
			}
			switch o := obj.(type) {
			case *residentBlock:
				blocks[i], resident[i] = o.MatrixBlock, o
			case *block.MatrixBlock:
				blocks[i] = o
			}
			lo, n, _ := matVecShape(blocks[i], trans)
			if lo < off || lo+n > off+len(x) {
				return nil, fmt.Errorf("dist: %s: x holds [%d,%d), short of block needing [%d,%d)", t.Name, off, off+len(x), lo, lo+n)
			}
		}
		sink, _ := ex.Sink.([]la.Vector)
		var frames [][]byte
		if sink == nil {
			frames = make([][]byte, len(blocks))
		}
		par.For(len(blocks), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				b := blocks[i]
				x0, n, out := matVecShape(b, trans)
				xs := x[x0-off : x0-off+n]
				var dst la.Vector
				switch {
				case sink != nil:
					dst = sink[i]
				case resident[i] != nil:
					dst = resident[i].partial(out)
				default:
					dst = la.NewVector(out)
				}
				if trans {
					b.TransMultVecAssign(xs, dst)
				} else {
					b.MultVecAssign(xs, dst)
				}
				if sink == nil {
					frames[i] = wireVector(dst)
				}
			}
		})
		return &kernel.Result{Frames: frames, Pooled: true}, nil
	}
}

// matVecShape returns the range [lo, lo+n) of x, in global indices, that
// block b multiplies and the length of its partial: columns in and rows
// out for B·x, rows in and columns out for Bᵀ·x.
func matVecShape(b *block.MatrixBlock, trans bool) (lo, n, out int) {
	if trans {
		return b.Row0, b.Rows, b.Cols
	}
	return b.Col0, b.Cols, b.Rows
}

// matVecKernel runs phase 1 of MultVec (multVecKernelName, partials under
// rowPartKey) or TransMultVec (transMultVecKernelName, under colPartKey)
// for one place: the registered kernel computes the place's partials into
// the place's scratch map — in its worker process, which gets x (once per
// version) and any blocks it does not hold yet shipped, and whose
// partials decode into the scratch; or in-process on the live objects
// every input names, writing the scratch directly. The caller has sized
// every block's scratch vector.
func (m *DistBlockMatrix) matVecKernel(ctx *apgas.Ctx, name string, x kernel.Input, part map[int]la.Vector, partKey func(id int) int, bs *block.BlockSet) error {
	if bs.Len() == 0 {
		return nil
	}
	inputs := make([]kernel.Input, 0, bs.Len()+1)
	inputs = append(inputs, x)
	sink := make([]la.Vector, 0, bs.Len())
	bs.Each(func(id int, b *block.MatrixBlock) {
		sink = append(sink, part[partKey(id)])
		inputs = append(inputs, kernel.Input{
			Handle: m.plh.Handle(),
			Key:    int64(id),
			Ver:    b.Ver,
			Encode: func() []byte {
				// Not a pooled buffer: a block ships once per worker
				// lifetime, so recycled it would only sit in the pool.
				e := codec.WrapEncoder(make([]byte, 0, b.EncodedSize()))
				b.EncodeInto(&e)
				return e.Bytes()
			},
			Obj: b,
		})
	})
	t := &kernel.Task{Name: name, Sink: sink}
	res, err := ctx.ExecKernel(t, inputs...)
	if err != nil {
		return err
	}
	defer res.Release()
	if len(res.Frames) == 0 {
		return nil // ran in-process: the partials are already in the sink
	}
	if len(res.Frames) != len(sink) {
		return fmt.Errorf("dist: %s at %v: %d partials for %d blocks", name, ctx.Here, len(res.Frames), len(sink))
	}
	for i, dst := range sink {
		// Decode in place: a frame of any other length would regrow the
		// destination instead of filling it.
		id := t.Refs[i+1].Key
		v, _, err := codec.Float64sInto(dst, res.Frames[i])
		if err != nil {
			return fmt.Errorf("dist: %s at %v: partial of block %d: %w", name, ctx.Here, id, err)
		}
		if len(v) != len(dst) {
			return fmt.Errorf("dist: %s at %v: partial of block %d has length %d, want %d", name, ctx.Here, id, len(v), len(dst))
		}
	}
	return nil
}
