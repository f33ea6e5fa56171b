package kernel

import (
	"errors"
	"fmt"

	"github.com/rgml/rgml/internal/codec"
)

// The flat wire encoding of Task and Result. Each value splits into a
// meta section — scalars, names, the ref and put-descriptor tables, all
// little-endian 8-byte words through internal/codec — and a list of blobs
// (Task: every Puts[i].Data in order, then Payload; Result: every frame
// in order, then Payload). The transport frames the meta, writes the
// blobs straight from the caller's slices and reads them straight into
// pooled buffers; nothing here copies a blob byte.
//
//	Task meta:   place | len name | n I64.. | n F64.. | n (handle key ver).. refs
//	             | n (from key to).. rekeys | n handle.. drops
//	             | n (handle key ver).. puts
//	Result meta: n F64.. | len err | n frames

// ErrBadWire reports a task or result encoding that is truncated,
// oversized or inconsistent with the blobs that came with it.
var ErrBadWire = errors.New("kernel: malformed wire encoding")

// AppendWire appends t's meta section to meta and its blobs to blobs,
// returning both. The blob slices alias t's own.
func (t *Task) AppendWire(meta []byte, blobs [][]byte) ([]byte, [][]byte) {
	meta = codec.AppendInt(meta, int(t.Place))
	meta = codec.AppendInt(meta, len(t.Name))
	meta = append(meta, t.Name...)
	meta = codec.AppendInt(meta, len(t.I64))
	for _, v := range t.I64 {
		meta = codec.AppendUint64(meta, uint64(v))
	}
	meta = codec.AppendFloat64s(meta, t.F64)
	meta = codec.AppendInt(meta, len(t.Refs))
	for _, r := range t.Refs {
		meta = appendID(meta, r.Handle, r.Key, r.Ver)
	}
	meta = codec.AppendInt(meta, len(t.Rekeys))
	for _, r := range t.Rekeys {
		meta = appendID(meta, r.From, r.Key, r.To)
	}
	meta = codec.AppendInt(meta, len(t.Drops))
	for _, h := range t.Drops {
		meta = codec.AppendUint64(meta, h)
	}
	meta = codec.AppendInt(meta, len(t.Puts))
	for _, b := range t.Puts {
		meta = appendID(meta, b.Handle, b.Key, b.Ver)
		blobs = append(blobs, b.Data)
	}
	return meta, append(blobs, t.Payload)
}

// DecodeTask rebuilds a task from its meta section and the blobs that
// travelled with it, adopting the blob slices.
func DecodeTask(meta []byte, blobs [][]byte) (*Task, error) {
	r := wireReader{b: meta}
	t := &Task{Place: int32(r.u64())}
	t.Name = string(r.take(r.count(1)))
	if n := r.count(8); n > 0 {
		t.I64 = make([]int64, n)
		for i := range t.I64 {
			t.I64[i] = int64(r.u64())
		}
	}
	t.F64 = r.f64s()
	if n := r.count(24); n > 0 {
		t.Refs = make([]Ref, n)
		for i := range t.Refs {
			t.Refs[i].Handle, t.Refs[i].Key, t.Refs[i].Ver = r.id()
		}
	}
	if n := r.count(24); n > 0 {
		t.Rekeys = make([]Rekey, n)
		for i := range t.Rekeys {
			t.Rekeys[i].From, t.Rekeys[i].Key, t.Rekeys[i].To = r.id()
		}
	}
	if n := r.count(8); n > 0 {
		t.Drops = make([]uint64, n)
		for i := range t.Drops {
			t.Drops[i] = r.u64()
		}
	}
	nputs := r.count(24)
	if err := r.finish("task", 24*nputs, uint64(nputs), blobs); err != nil {
		return nil, err
	}
	if nputs > 0 {
		t.Puts = make([]Blob, nputs)
		for i := range t.Puts {
			t.Puts[i].Handle, t.Puts[i].Key, t.Puts[i].Ver = r.id()
			t.Puts[i].Data = blobs[i]
		}
	}
	t.Payload = blobs[nputs]
	return t, nil
}

// AppendWire appends r's meta section to meta and its blobs to blobs,
// returning both. The blob slices alias r's own.
func (r *Result) AppendWire(meta []byte, blobs [][]byte) ([]byte, [][]byte) {
	meta = codec.AppendFloat64s(meta, r.F64)
	meta = codec.AppendInt(meta, len(r.Err))
	meta = append(meta, r.Err...)
	meta = codec.AppendInt(meta, len(r.Frames))
	return meta, append(append(blobs, r.Frames...), r.Payload)
}

// DecodeResult rebuilds a result from its meta section and the blobs
// that travelled with it, adopting the blob slices. pooled says the
// blobs are codec.GetBuffer buffers the result now owns (Result.Pooled).
func DecodeResult(meta []byte, blobs [][]byte, pooled bool) (*Result, error) {
	r := wireReader{b: meta}
	res := &Result{F64: r.f64s(), Pooled: pooled}
	res.Err = string(r.take(r.count(1)))
	n := r.u64()
	if err := r.finish("result", 0, n, blobs); err != nil {
		return nil, err
	}
	nframes := int(n)
	if nframes > 0 {
		res.Frames = blobs[:nframes:nframes]
	}
	res.Payload = blobs[nframes]
	return res, nil
}

func appendID(b []byte, handle uint64, key int64, ver uint64) []byte {
	b = codec.AppendUint64(b, handle)
	b = codec.AppendUint64(b, uint64(key))
	return codec.AppendUint64(b, ver)
}

// wireReader is a cursor over a meta section with a sticky error: after
// the first short read every accessor returns zero values, so decoders
// read straight through and check once.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) u64() uint64 {
	v, rest, err := codec.Uint64(r.b)
	if err != nil {
		r.err, r.b = ErrBadWire, nil
		return 0
	}
	r.b = rest
	return v
}

func (r *wireReader) id() (handle uint64, key int64, ver uint64) {
	return r.u64(), int64(r.u64()), r.u64()
}

// count reads an element count and checks that many elements of elem
// bytes each are actually present, so no decoder allocates on the word of
// a corrupt length.
func (r *wireReader) count(elem int) int {
	n := r.u64()
	if n > uint64(len(r.b)/elem) {
		r.err, r.b = ErrBadWire, nil
		return 0
	}
	return int(n)
}

func (r *wireReader) take(n int) []byte {
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) f64s() []float64 {
	vs, rest, err := codec.Float64s(r.b)
	if err != nil {
		r.err, r.b = ErrBadWire, nil
		return nil
	}
	r.b = rest
	if len(vs) == 0 {
		return nil
	}
	return vs
}

// finish closes the decode: it reports the cursor's error, a meta section
// that does not end after exactly rest more bytes, or a blob list that is
// not the n per-element blobs the meta declared plus the payload.
func (r *wireReader) finish(what string, rest int, n uint64, blobs [][]byte) error {
	if r.err != nil || len(r.b) != rest {
		return fmt.Errorf("%w: %s meta", ErrBadWire, what)
	}
	if len(blobs) == 0 || n != uint64(len(blobs)-1) {
		return fmt.Errorf("%w: %s declares %d blob(s) before its payload, frame carries %d in all", ErrBadWire, what, n, len(blobs))
	}
	return nil
}
