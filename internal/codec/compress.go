// Compression seam under the snapshot codec. A Compressor rewrites the
// bulk slice frames (float and int payloads) that dominate checkpoint
// volume; scalar headers keep the fixed-width encoding so block and
// snapshot metadata stay directly seekable. The Encoder folds the CRC-32C
// over whatever bytes are actually emitted, so with a compressor attached
// the integrity checksum covers the *compressed* frames end-to-end —
// replica placement, Reed-Solomon sharding and the NetModel byte charges
// all operate on compressed sizes with no further plumbing.
//
// Three modes:
//
//   - CompressNone: the legacy fixed-width frames, byte-identical to a
//     build without this file.
//   - CompressLossless: int slices as zigzag-varint deltas (sparse index
//     arrays are sorted and near-arithmetic, so deltas are tiny); float
//     slices byte-plane shuffled and deflated chunk by chunk (the shuffle
//     groups the high-entropy mantissa bytes apart from the highly
//     repetitive sign/exponent bytes), with a verbatim fallback whenever
//     deflate would not actually shrink a frame.
//   - CompressLossy: floats quantized to q = round(x/2ε) and delta-varint
//     encoded, guaranteeing |x − x'| ≤ ε per element (Tao et al.,
//     "Improving Performance of Iterative Methods by Lossy
//     Checkpointing"). Any element that cannot honor the bound (NaN, ±Inf,
//     |q| beyond exact-integer range, or a verification miss) falls the
//     whole frame back to the lossless path, so the bound is an invariant
//     of the wire format, not a best effort.
//
// Chunked float frames compress and decompress in parallel through
// internal/par; chunk geometry depends only on the element count, so the
// emitted bytes are deterministic at every worker count — the property
// the restore's digest validation of survivor state and the chaos
// campaigns' bitwise replay checks rely on.
package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"github.com/rgml/rgml/internal/par"
)

// Compression selects a checkpoint compression mode.
type Compression uint8

const (
	// CompressNone keeps the legacy fixed-width frames (the default).
	CompressNone Compression = iota
	// CompressLossless shrinks frames with exact round-trip codecs.
	CompressLossless
	// CompressLossy quantizes float frames against a per-object error
	// bound; everything else stays lossless.
	CompressLossy
)

// String implements fmt.Stringer.
func (c Compression) String() string {
	switch c {
	case CompressNone:
		return "none"
	case CompressLossless:
		return "lossless"
	case CompressLossy:
		return "lossy"
	}
	return fmt.Sprintf("Compression(%d)", uint8(c))
}

// ParseCompression maps a -compress flag value to its mode.
func ParseCompression(s string) (Compression, error) {
	switch s {
	case "", "none":
		return CompressNone, nil
	case "lossless":
		return CompressLossless, nil
	case "lossy":
		return CompressLossy, nil
	}
	return 0, fmt.Errorf("unknown compression %q (want none, lossless or lossy)", s)
}

// Spec is a complete, comparable compression configuration: the mode plus
// the lossy error bound. The zero value means no compression.
type Spec struct {
	Mode Compression
	// ErrorBound is the per-element absolute error ε the lossy codec
	// guarantees. It must be positive and finite for CompressLossy and
	// zero otherwise (so equal configurations compare equal).
	ErrorBound float64
}

// IsZero reports whether s is the no-compression default.
func (s Spec) IsZero() bool { return s == Spec{} }

// Validate checks the mode/bound combination.
func (s Spec) Validate() error {
	switch s.Mode {
	case CompressNone, CompressLossless:
		if s.ErrorBound != 0 {
			return fmt.Errorf("codec: error bound %g applies to lossy compression only", s.ErrorBound)
		}
		return nil
	case CompressLossy:
		if !(s.ErrorBound > 0) || math.IsInf(s.ErrorBound, 0) {
			return fmt.Errorf("codec: lossy compression needs a positive finite error bound, got %g", s.ErrorBound)
		}
		return nil
	}
	return fmt.Errorf("codec: unknown compression mode %d", s.Mode)
}

// String implements fmt.Stringer.
func (s Spec) String() string {
	if s.Mode == CompressLossy {
		return fmt.Sprintf("lossy(eps=%g)", s.ErrorBound)
	}
	return s.Mode.String()
}

// Compressor rewrites the bulk slice frames of the snapshot codec. The
// Append methods emit a self-describing frame; the Into methods decode one
// (any Compressor decodes every frame kind, so a lossy compressor reads
// frames that fell back to lossless). Implementations are safe for
// concurrent use — one Compressor serves all places of a runtime.
type Compressor interface {
	// Spec returns the configuration this compressor was built from.
	Spec() Spec
	// SizeBound returns a buffer size sufficient for any payload whose
	// legacy fixed-width encoding is rawSize bytes.
	SizeBound(rawSize int) int
	// AppendFloat64s and AppendInts append one compressed frame.
	AppendFloat64s(dst []byte, vs []float64) []byte
	AppendInts(dst []byte, vs []int) []byte
	// Float64sInto and IntsInto decode one frame into dst's backing
	// storage when its capacity suffices, returning the values and the
	// remaining input (the contract of the legacy Float64sInto/IntsInto).
	Float64sInto(dst []float64, b []byte) ([]float64, []byte, error)
	IntsInto(dst []int, b []byte) ([]int, []byte, error)
	// MaxError returns the largest per-element error introduced by any
	// frame this compressor has encoded (always 0 for lossless).
	MaxError() float64
}

// NewCompressor builds the Compressor for spec; CompressNone yields nil
// (callers treat a nil Compressor as the legacy fixed-width path).
func NewCompressor(spec Spec) (Compressor, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Mode {
	case CompressNone:
		return nil, nil
	case CompressLossless:
		return losslessCompressor{}, nil
	default:
		return &lossyCompressor{eps: spec.ErrorBound}, nil
	}
}

// Float64sIntoC routes through c, or the legacy decoding when c is nil.
func Float64sIntoC(c Compressor, dst []float64, b []byte) ([]float64, []byte, error) {
	if c == nil {
		return Float64sInto(dst, b)
	}
	return c.Float64sInto(dst, b)
}

// IntsIntoC routes through c, or the legacy decoding when c is nil.
func IntsIntoC(c Compressor, dst []int, b []byte) ([]int, []byte, error) {
	if c == nil {
		return IntsInto(dst, b)
	}
	return c.IntsInto(dst, b)
}

// Float frame layout: [uvarint count] then, for count > 0, one tag byte
// and the tagged payload.
const (
	floatRaw       = 0 // 8·count little-endian words (deflate did not pay off)
	floatShuffled  = 1 // [uvarint nChunks][uvarint len]·nChunks, byte-shuffled deflate streams
	floatQuantized = 2 // [8-byte ε bits][zigzag-varint delta-coded quantum numbers]
)

// floatChunk is the float count per deflate chunk: big enough to amortize
// the deflate stream overhead, small enough that block payloads split into
// several chunks and compress in parallel.
const floatChunk = 32768

// flateMinFloats is the slice length below which deflate is not attempted
// (stream setup dominates any saving on tiny frames).
const flateMinFloats = 128

// maxQuant bounds |q| to the range where float64(int64(q)) is exact, so
// the reconstruction q·2ε is computed from the same quantum number the
// encoder verified.
const maxQuant = float64(1 << 51)

// errCorruptFrame reports a structurally invalid compressed frame — a
// decode that survives the CRC only because the caller skipped it.
var errCorruptFrame = errors.New("codec: corrupt compressed frame")

// losslessCompressor implements exact round-trip compression.
type losslessCompressor struct{}

func (losslessCompressor) Spec() Spec        { return Spec{Mode: CompressLossless} }
func (losslessCompressor) MaxError() float64 { return 0 }

// SizeBound: varints expand an 8-byte word to at most 10 bytes (+25%),
// and float frames never exceed raw + the chunk table; 64 covers headers.
func (losslessCompressor) SizeBound(rawSize int) int { return sizeBound(rawSize) }

func sizeBound(rawSize int) int { return rawSize + rawSize/4 + 64 }

func (losslessCompressor) AppendInts(dst []byte, vs []int) []byte {
	return appendVarints(dst, vs)
}

func (losslessCompressor) AppendFloat64s(dst []byte, vs []float64) []byte {
	return appendFloatsLossless(dst, vs)
}

func (losslessCompressor) IntsInto(dst []int, b []byte) ([]int, []byte, error) {
	return varintsInto(dst, b)
}

func (losslessCompressor) Float64sInto(dst []float64, b []byte) ([]float64, []byte, error) {
	return floatsInto(dst, b)
}

// lossyCompressor quantizes float frames against eps and delegates
// everything else (and every fallback) to the lossless codecs.
type lossyCompressor struct {
	eps float64
	// maxErr accumulates the largest reconstruction error actually
	// introduced, as monotonically increasing float bits (valid because
	// errors are non-negative, where the IEEE-754 ordering matches the
	// bit ordering).
	maxErr atomic.Uint64
}

func (c *lossyCompressor) Spec() Spec { return Spec{Mode: CompressLossy, ErrorBound: c.eps} }

func (c *lossyCompressor) SizeBound(rawSize int) int { return sizeBound(rawSize) }

func (c *lossyCompressor) MaxError() float64 {
	return math.Float64frombits(c.maxErr.Load())
}

func (c *lossyCompressor) noteErr(e float64) {
	bits := math.Float64bits(e)
	for {
		old := c.maxErr.Load()
		if old >= bits || c.maxErr.CompareAndSwap(old, bits) {
			return
		}
	}
}

func (c *lossyCompressor) AppendInts(dst []byte, vs []int) []byte {
	return appendVarints(dst, vs)
}

func (c *lossyCompressor) IntsInto(dst []int, b []byte) ([]int, []byte, error) {
	return varintsInto(dst, b)
}

func (c *lossyCompressor) Float64sInto(dst []float64, b []byte) ([]float64, []byte, error) {
	return floatsInto(dst, b)
}

// AppendFloat64s quantizes vs to multiples of 2ε, verifying the error
// bound per element against the exact value the decoder will reconstruct.
// Any element that cannot honor the bound rolls the whole frame back to
// the lossless encoding.
func (c *lossyCompressor) AppendFloat64s(dst []byte, vs []float64) []byte {
	n := len(vs)
	mark := len(dst)
	dst = binary.AppendUvarint(dst, uint64(n))
	if n == 0 {
		return dst
	}
	dst = append(dst, floatQuantized)
	twoEps := 2 * c.eps
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.eps))
	prev := int64(0)
	localMax := 0.0
	for _, v := range vs {
		q := math.Round(v / twoEps)
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(q) > maxQuant {
			return appendFloatsLossless(dst[:mark], vs)
		}
		e := math.Abs(v - q*twoEps)
		if !(e <= c.eps) {
			return appendFloatsLossless(dst[:mark], vs)
		}
		if e > localMax {
			localMax = e
		}
		qi := int64(q)
		dst = binary.AppendUvarint(dst, zigzag(qi-prev))
		prev = qi
	}
	if len(dst)-mark >= 8*n {
		// Quantization did not pay (adversarially spread values); the
		// lossless path is both smaller and exact.
		return appendFloatsLossless(dst[:mark], vs)
	}
	c.noteErr(localMax)
	return dst
}

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendVarints emits an int slice as [uvarint count] plus zigzag-varint
// first differences — near-free for the sorted index arrays (ColPtr,
// RowIdx) of sparse blocks.
func appendVarints(dst []byte, vs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	prev := int64(0)
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, zigzag(int64(v)-prev))
		prev = int64(v)
	}
	return dst
}

// varintsInto decodes an appendVarints frame.
func varintsInto(dst []int, b []byte) ([]int, []byte, error) {
	n64, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	// Every value costs at least one byte, so a count beyond the input
	// length is structurally impossible.
	if n64 > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: int count %d exceeds input", errCorruptFrame, n64)
	}
	n := int(n64)
	var vs []int
	if cap(dst) >= n {
		vs = dst[:n]
	} else {
		vs = make([]int, n)
	}
	prev := int64(0)
	for i := 0; i < n; i++ {
		var u uint64
		u, b, err = readUvarint(b)
		if err != nil {
			return nil, nil, err
		}
		prev += unzigzag(u)
		vs[i] = int(prev)
	}
	return vs, b, nil
}

// appendFloatsLossless emits a float frame: byte-plane shuffled deflate
// chunks when that shrinks the payload, verbatim words otherwise.
func appendFloatsLossless(dst []byte, vs []float64) []byte {
	n := len(vs)
	dst = binary.AppendUvarint(dst, uint64(n))
	if n == 0 {
		return dst
	}
	if n < flateMinFloats {
		return appendFloatsRaw(dst, vs)
	}
	nChunks := (n + floatChunk - 1) / floatChunk
	comp := make([][]byte, nChunks)
	par.For(nChunks, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			clo := c * floatChunk
			chi := min(clo+floatChunk, n)
			comp[c] = compressFloatChunk(vs[clo:chi])
		}
	})
	total := 0
	for _, cb := range comp {
		total += len(cb)
	}
	// The frame must beat the raw payload including its own chunk table.
	if total+1+binary.MaxVarintLen64*(nChunks+1) >= 8*n {
		for _, cb := range comp {
			PutBuffer(cb)
		}
		return appendFloatsRaw(dst, vs)
	}
	dst = append(dst, floatShuffled)
	dst = binary.AppendUvarint(dst, uint64(nChunks))
	for _, cb := range comp {
		dst = binary.AppendUvarint(dst, uint64(len(cb)))
	}
	for _, cb := range comp {
		dst = append(dst, cb...)
		PutBuffer(cb)
	}
	return dst
}

// appendFloatsRaw emits the verbatim little-endian words after the count.
func appendFloatsRaw(dst []byte, vs []float64) []byte {
	dst = append(dst, floatRaw)
	off := len(dst)
	dst = grow(dst, 8*len(vs))
	putRawFloats(dst[off:], vs)
	return dst
}

// putRawFloats writes vs as little-endian words into dst (len 8·len(vs)).
func putRawFloats(dst []byte, vs []float64) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// floatsInto decodes any float frame kind.
func floatsInto(dst []float64, b []byte) ([]float64, []byte, error) {
	n64, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	// Deflate tops out near 1032:1, so a count whose payload could not
	// possibly fit the remaining input is corrupt — reject before
	// allocating element storage for it.
	if n64 > uint64(math.MaxInt32) || int(n64) > (len(b)+64)*130 {
		return nil, nil, fmt.Errorf("%w: implausible float count %d", errCorruptFrame, n64)
	}
	n := int(n64)
	var vs []float64
	if cap(dst) >= n {
		vs = dst[:n]
	} else {
		vs = make([]float64, n)
	}
	if n == 0 {
		return vs, b, nil
	}
	if len(b) < 1 {
		return nil, nil, ErrShortBuffer
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case floatRaw:
		if len(b) < 8*n {
			return nil, nil, ErrShortBuffer
		}
		for i := 0; i < n; i++ {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return vs, b[8*n:], nil
	case floatShuffled:
		rest, err := decodeShuffledFloats(vs, b)
		if err != nil {
			return nil, nil, err
		}
		return vs, rest, nil
	case floatQuantized:
		rest, err := decodeQuantizedFloats(vs, b)
		if err != nil {
			return nil, nil, err
		}
		return vs, rest, nil
	}
	return nil, nil, fmt.Errorf("%w: unknown float frame tag %d", errCorruptFrame, tag)
}

// decodeShuffledFloats fills vs from a floatShuffled payload, returning
// the remaining input. Chunks decompress in parallel; the chunk geometry
// is recomputed from the count and must match the wire's chunk table.
func decodeShuffledFloats(vs []float64, b []byte) ([]byte, error) {
	n := len(vs)
	nc64, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	wantChunks := (n + floatChunk - 1) / floatChunk
	if nc64 != uint64(wantChunks) {
		return nil, fmt.Errorf("%w: chunk count %d for %d floats", errCorruptFrame, nc64, n)
	}
	lens := make([]int, wantChunks)
	total := 0
	for i := range lens {
		var l uint64
		l, b, err = readUvarint(b)
		if err != nil {
			return nil, err
		}
		if l > uint64(len(b)) || total > len(b)-int(l) {
			return nil, fmt.Errorf("%w: chunk length overruns input", errCorruptFrame)
		}
		lens[i] = int(l)
		total += int(l)
	}
	offs := make([]int, wantChunks)
	off := 0
	for i, l := range lens {
		offs[i] = off
		off += l
	}
	errsByChunk := make([]error, wantChunks)
	par.For(wantChunks, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			clo := c * floatChunk
			chi := min(clo+floatChunk, n)
			errsByChunk[c] = decompressFloatChunk(vs[clo:chi], b[offs[c]:offs[c]+lens[c]])
		}
	})
	if err := errors.Join(errsByChunk...); err != nil {
		return nil, err
	}
	return b[total:], nil
}

// decodeQuantizedFloats fills vs from a floatQuantized payload.
func decodeQuantizedFloats(vs []float64, b []byte) ([]byte, error) {
	if len(b) < 8 {
		return nil, ErrShortBuffer
	}
	eps := math.Float64frombits(binary.LittleEndian.Uint64(b))
	b = b[8:]
	if !(eps > 0) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("%w: quantized frame with error bound %g", errCorruptFrame, eps)
	}
	twoEps := 2 * eps
	prev := int64(0)
	for i := range vs {
		u, rest, err := readUvarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		prev += unzigzag(u)
		vs[i] = float64(prev) * twoEps
	}
	return b, nil
}

// readUvarint consumes one uvarint, returning the remaining input.
func readUvarint(b []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, ErrShortBuffer
	}
	return v, b[k:], nil
}

// compressFloatChunk byte-plane shuffles one chunk and deflates it into a
// pooled buffer (returned to the pool by the caller).
func compressFloatChunk(vs []float64) []byte {
	m := len(vs)
	scratch := GetBuffer(8 * m)[:8*m]
	for i, v := range vs {
		bits := math.Float64bits(v)
		for p := 0; p < 8; p++ {
			scratch[p*m+i] = byte(bits >> (8 * p))
		}
	}
	sw := &sliceWriter{buf: GetBuffer(8 * m)[:0]}
	fw := flateWriters.Get().(*flate.Writer)
	fw.Reset(sw)
	// Writes to a sliceWriter cannot fail; deflate errors would surface
	// on Close, which for an in-memory sink never errors either.
	fw.Write(scratch)
	fw.Close()
	flateWriters.Put(fw)
	PutBuffer(scratch)
	return sw.buf
}

// decompressFloatChunk inflates one chunk and unshuffles it into dst.
func decompressFloatChunk(dst []float64, data []byte) error {
	m := len(dst)
	scratch := GetBuffer(8 * m)[:8*m]
	defer PutBuffer(scratch)
	fr := flateReaders.Get().(*flateReaderState)
	fr.br.Reset(data)
	if err := fr.rd.(flate.Resetter).Reset(&fr.br, nil); err != nil {
		flateReaders.Put(fr)
		return fmt.Errorf("%w: %v", errCorruptFrame, err)
	}
	_, err := io.ReadFull(fr.rd, scratch)
	flateReaders.Put(fr)
	if err != nil {
		return fmt.Errorf("%w: %v", errCorruptFrame, err)
	}
	for i := range dst {
		var bits uint64
		for p := 0; p < 8; p++ {
			bits |= uint64(scratch[p*m+i]) << (8 * p)
		}
		dst[i] = math.Float64frombits(bits)
	}
	return nil
}

// sliceWriter is an appending io.Writer over a byte slice.
type sliceWriter struct{ buf []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// flateWriters pools deflate writers (each holds ~32 KiB of window state).
var flateWriters = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return w
}}

// flateReaderState pairs a reusable inflate reader with its input reader.
type flateReaderState struct {
	br bytes.Reader
	rd io.ReadCloser
}

var flateReaders = sync.Pool{New: func() any {
	s := &flateReaderState{}
	s.rd = flate.NewReader(&s.br)
	return s
}}
