package dist

import (
	"fmt"
	"math"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/snapshot"
)

// compressible is embedded by every snapshottable dist class. It holds
// the object's lossy opt-in; the compression policy itself is the
// runtime's (apgas.WithCompression). Lossy compression is strictly opt-in
// per object: without AllowLossyCheckpoint(true), a lossy policy is
// transparently downgraded to lossless, so read-only inputs and index
// structures are never quantized.
type compressible struct {
	lossyOK bool
}

// AllowLossyCheckpoint marks the object as tolerating error-bounded
// lossy checkpoints. Solvers set it on mutable model state they can
// re-converge from (à la lossy checkpointing for iterative methods);
// anything not marked is checkpointed losslessly even under a lossy
// policy.
func (c *compressible) AllowLossyCheckpoint(on bool) { c.lossyOK = on }

// resolveSpec computes the effective compression policy for a
// checkpoint of this object: the runtime's, with lossy degraded to
// lossless unless the object opted in.
func (c *compressible) resolveSpec(rt *apgas.Runtime) codec.Spec {
	spec := rt.Compression()
	if spec.Mode == codec.CompressLossy && !c.lossyOK {
		spec = codec.Spec{Mode: codec.CompressLossless}
	}
	return spec
}

// newCompressor builds the save-side compressor for one checkpoint of
// this object (nil for an uncompressed checkpoint). A fresh compressor
// per snapshot keeps the lossy error tracking scoped to that snapshot.
func (c *compressible) newCompressor(rt *apgas.Runtime) (codec.Compressor, codec.Spec) {
	spec := c.resolveSpec(rt)
	comp, err := codec.NewCompressor(spec)
	if err != nil {
		// resolveSpec only yields validated specs; degrade to
		// uncompressed rather than failing the checkpoint.
		return nil, codec.Spec{}
	}
	return comp, spec
}

// appendCompressMeta appends the compression header every snapshot
// descriptor starts with: the codec's mode and its error bound.
func appendCompressMeta(meta []byte, spec codec.Spec) []byte {
	meta = codec.AppendInt(meta, int(spec.Mode))
	return codec.AppendUint64(meta, math.Float64bits(spec.ErrorBound))
}

// splitCompressMeta peels the compression header off a snapshot
// descriptor, returning the recorded spec and the remaining object
// metadata.
func splitCompressMeta(meta []byte) (codec.Spec, []byte, error) {
	mode, rest, err := codec.Int(meta)
	if err != nil {
		return codec.Spec{}, nil, fmt.Errorf("dist: compression meta: %w", err)
	}
	bits, rest, err := codec.Uint64(rest)
	if err != nil {
		return codec.Spec{}, nil, fmt.Errorf("dist: compression meta: %w", err)
	}
	spec := codec.Spec{Mode: codec.Compression(mode), ErrorBound: math.Float64frombits(bits)}
	if err := spec.Validate(); err != nil {
		return codec.Spec{}, nil, fmt.Errorf("dist: compression meta: %w", err)
	}
	return spec, rest, nil
}

// compressorForMeta builds the decode-side compressor recorded in a
// snapshot descriptor (nil when the snapshot is uncompressed) and
// returns the remaining object metadata.
func compressorForMeta(meta []byte) (codec.Compressor, []byte, error) {
	spec, rest, err := splitCompressMeta(meta)
	if err != nil {
		return nil, nil, err
	}
	comp, err := codec.NewCompressor(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: compression meta: %w", err)
	}
	return comp, rest, nil
}

// noteLossyErr folds the compressor's observed quantization error into
// the snapshot's lossy-error gauge after a successful save pass.
func noteLossyErr(s *snapshot.Snapshot, comp codec.Compressor) {
	if comp != nil {
		s.NoteLossyMaxError(comp.MaxError())
	}
}
