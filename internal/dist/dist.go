// Package dist implements GML's multi-place vector and matrix classes over
// the apgas substrate (paper Table I):
//
//	           Duplicated        Distributed
//	Vectors    DupVector         DistVector
//	Matrices   DupDenseMatrix    DistDenseMatrix
//	           DupSparseMatrix   DistSparseMatrix
//	                             DistBlockMatrix
//
// Every class supports construction over an arbitrary PlaceGroup, dynamic
// redistribution via Remake (paper section IV-A), and the Snapshottable
// snapshot/restore protocol (section IV-B), including the block-by-block
// fast path when the partitioning is unchanged and the overlap-based
// sub-block path (with the extra nonzero-counting pass for sparse data)
// when the data grid changed.
//
// The three duplicated classes are one generic core, dup[T] (dup.go):
// Sync and the restore's re-broadcast share one binomial bcast, and
// Remake, MakeSnapshot and RestoreSnapshot are written once. Each class
// adds a small payload adapter (dupKind) and its own arithmetic (Dot,
// ZipAll, RootApply, Init, ...).
//
// Collective operations are deterministic: reductions combine per-place
// contributions in place-group order, so a computation replayed after a
// failure reproduces the failure-free result exactly. The resilience tests
// rely on this.
package dist

import (
	"errors"
	"fmt"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/snapshot"
)

// ErrGroupMismatch reports an operation between objects distributed over
// different place groups.
var ErrGroupMismatch = errors.New("dist: objects distributed over different place groups")

// ErrShapeMismatch reports an operation between objects of incompatible
// dimensions.
var ErrShapeMismatch = errors.New("dist: shape mismatch")

// saveVector checkpoints one vector fragment under key (see
// Snapshot.SaveEncoded): the fragment is encoded into a pooled,
// exactly-sized buffer whose CRC-32C the codec.Encoder computes chunk by
// chunk as it writes (over the whole compressed frame, once it is built,
// when comp is set).
func saveVector(ctx *apgas.Ctx, s *snapshot.Snapshot, key int, v la.Vector, comp codec.Compressor) {
	s.SaveEncoded(ctx, key, func() *codec.Encoder {
		var start time.Time
		if comp != nil {
			start = time.Now()
		}
		enc := codec.NewEncoderC(codec.SizeFloat64s(len(v)), comp)
		enc.PutFloat64s(v)
		if comp != nil {
			s.NoteCompression(codec.SizeFloat64s(len(v)), enc.Len(), time.Since(start))
		}
		return &enc
	})
}

// validateRetainedVector checks a surviving place's in-memory fragment
// against the snapshot digest for key (see validateRetained). Used by
// RestoreSnapshot to keep survivor state instead of re-loading it.
func validateRetainedVector(ctx *apgas.Ctx, s *snapshot.Snapshot, key, ownerIdx int, v la.Vector, comp codec.Compressor) bool {
	return validateRetained(ctx, s, key, ownerIdx, codec.SizeFloat64s(len(v)), comp, func(e *codec.Encoder) { e.PutFloat64s(v) })
}

// validateRetainedBlock checks a surviving place's in-memory block
// against the snapshot digest for key (see validateRetained).
func validateRetainedBlock(ctx *apgas.Ctx, s *snapshot.Snapshot, key, ownerIdx int, b *block.MatrixBlock, comp codec.Compressor) bool {
	return validateRetained(ctx, s, key, ownerIdx, b.EncodedSize(), comp, b.EncodeInto)
}

// validateRetained reports whether encode, the save's own encoding of a
// survivor's fragment of rawSize uncompressed bytes, emits exactly the
// size and CRC-32C the snapshot digest recorded for key. Uncompressed it
// runs in checksum-only mode (codec.NewChecksummer): the same puts, so the
// same size and CRC over the same bytes, but nothing is written and no
// pool buffer is drawn. A lossless compressor's CRC covers its output, so
// that case encodes for real into a pooled buffer, and the size precheck
// is skipped (compressed sizes are not predictable from the shape). A
// lossy compressor rejects outright: its re-encode cannot distinguish the
// checkpointed value from any later value in the same quantization
// bucket, so content validation would let survivors keep
// post-checkpoint state and dodge the rollback — under a lossy codec
// every place reloads, keeping the post-restore state the checkpoint
// state (up to the error bound), never a mixture of checkpoint and newer
// survivor state. Each call that validates is timed into
// dist.restore.validate.
func validateRetained(ctx *apgas.Ctx, s *snapshot.Snapshot, key, ownerIdx, rawSize int, comp codec.Compressor, encode func(*codec.Encoder)) bool {
	if comp != nil && comp.Spec().Mode == codec.CompressLossy {
		return false
	}
	hist, start := ctx.Runtime().Obs().Histogram("dist.restore.validate"), time.Now()
	defer func() { hist.Observe(time.Since(start)) }()
	sum, size, err := s.Digest(ctx, key, ownerIdx)
	if err != nil || (comp == nil && size != rawSize) {
		return false
	}
	var enc codec.Encoder
	if comp == nil {
		enc = codec.NewChecksummer()
	} else {
		enc = codec.NewEncoderC(rawSize, comp)
	}
	encode(&enc)
	ok := enc.Len() == size && enc.Sum() == sum
	codec.PutBuffer(enc.Bytes())
	return ok
}

// decodeVectorInto deserializes a vector fragment into dst's backing
// storage when the lengths match (the same-segmentation restore path),
// avoiding a fresh allocation.
func decodeVectorInto(dst la.Vector, b []byte, comp codec.Compressor) (la.Vector, error) {
	vs, _, err := codec.Float64sIntoC(comp, dst, b)
	if err != nil {
		return nil, fmt.Errorf("dist: decode vector: %w", err)
	}
	return vs, nil
}

// decodeVector deserializes a vector fragment.
func decodeVector(b []byte, comp codec.Compressor) (la.Vector, error) {
	vs, _, err := codec.Float64sIntoC(comp, nil, b)
	if err != nil {
		return nil, fmt.Errorf("dist: decode vector: %w", err)
	}
	return vs, nil
}
