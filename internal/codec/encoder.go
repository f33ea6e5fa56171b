package codec

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"unsafe"
)

// castagnoli is the CRC-32C polynomial table used for snapshot integrity
// checksums (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of data in one pass, for callers that
// receive a pre-built buffer (snapshot verification at load time).
func Checksum(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}

// Encoder accumulates an encoded payload while folding the CRC-32C of the
// emitted bytes into the same pass: each Put* appends to the buffer and
// extends the running checksum over the new bytes while they are still
// cache-hot, so no separate full-buffer hashing pass is needed at save
// time. The bulk puts (PutFloat64s, PutInts) do this per bulkChunk: one
// copy of a whole multi-megabyte slice would leave nothing of it in cache
// for the checksum — above 1 MiB the amd64 runtime's memmove even switches
// to non-temporal stores that bypass the cache — so the CRC would re-read
// every byte from DRAM. The zero value is ready to use with a nil buffer;
// NewEncoder draws a pre-sized buffer from the pool so that steady-state
// checkpoints are allocation-free. NewChecksummer runs the same puts
// without keeping their bytes.
type Encoder struct {
	buf  []byte
	sum  uint32
	comp Compressor
	// sumOnly is checksum-only mode: the puts fold the CRC-32C and count
	// their bytes in n, and buf is scratch that is overwritten by each put.
	sumOnly bool
	n       int
}

// NewEncoder returns an Encoder whose buffer comes from the pool with at
// least sizeHint capacity. Pair with snapshot.SaveEncoded (which takes
// ownership and recycles the buffer on Destroy) or with PutBuffer.
func NewEncoder(sizeHint int) Encoder {
	return Encoder{buf: GetBuffer(sizeHint)}
}

// NewEncoderC is NewEncoder with a compression stage: the bulk slice
// frames (PutFloat64s, PutInts) route through comp, and the running
// CRC-32C covers the compressed bytes. A nil comp is exactly NewEncoder.
// sizeHint is the legacy fixed-width payload size; the buffer is sized for
// the compressor's worst case so incompressible payloads do not regrow it.
func NewEncoderC(sizeHint int, comp Compressor) Encoder {
	if comp != nil {
		sizeHint = comp.SizeBound(sizeHint)
	}
	return Encoder{buf: GetBuffer(sizeHint), comp: comp}
}

// WrapEncoder returns an Encoder that appends to the caller's buffer
// (which is not pool-managed).
func WrapEncoder(buf []byte) Encoder {
	return Encoder{buf: buf}
}

// NewChecksummer returns an Encoder in checksum-only mode: every put folds
// the CRC-32C of the bytes it would emit and counts them, but stores
// nothing, so Len and Sum are bit-for-bit those of a real encode through
// the same puts and Bytes is nil. The bulk puts checksum a slice's own
// memory where it already is the wire format (little-endian host, 64-bit
// int); elsewhere they convert it through one scratch chunk of at most
// bulkChunk bytes. No buffer is drawn from the pool. There is no
// compressed variant: a compressor's checksum covers bytes that exist only
// once it has run.
func NewChecksummer() Encoder {
	return Encoder{sumOnly: true}
}

// Bytes returns the encoded payload (nil in checksum-only mode).
func (e *Encoder) Bytes() []byte {
	if e.sumOnly {
		return nil
	}
	return e.buf
}

// Sum returns the CRC-32C of everything emitted so far.
func (e *Encoder) Sum() uint32 { return e.sum }

// Len returns the number of bytes emitted so far.
func (e *Encoder) Len() int {
	if e.sumOnly {
		return e.n
	}
	return len(e.buf)
}

// next returns the n bytes the next put writes: appended to the payload,
// or in checksum-only mode the head of the scratch buffer.
func (e *Encoder) next(n int) []byte {
	if !e.sumOnly {
		off := len(e.buf)
		e.buf = grow(e.buf, n)
		return e.buf[off:]
	}
	e.n += n
	if cap(e.buf) < n {
		e.buf = make([]byte, n)
	}
	return e.buf[:n]
}

// update extends the running checksum over bytes appended past off.
func (e *Encoder) update(off int) {
	e.sum = crc32.Update(e.sum, castagnoli, e.buf[off:])
}

// PutUint64 emits v in little-endian order.
func (e *Encoder) PutUint64(v uint64) {
	dst := e.next(8)
	binary.LittleEndian.PutUint64(dst, v)
	e.sum = crc32.Update(e.sum, castagnoli, dst)
}

// PutInt emits an int as a uint64.
func (e *Encoder) PutInt(v int) {
	e.PutUint64(uint64(int64(v)))
}

// PutFloat64 emits the IEEE-754 bits of v.
func (e *Encoder) PutFloat64(v float64) {
	e.PutUint64(math.Float64bits(v))
}

// bulkChunk is the span, in bytes, of a bulk put's copy-then-checksum
// step. 64 KiB stays far below a 2 MiB L2 and the runtime's 1 MiB
// non-temporal threshold, so the CRC reads each chunk from L1/L2 right
// after it was written, while the per-chunk call overhead is negligible
// next to copying and hashing 64 KiB.
const bulkChunk = 64 << 10

// sumInPlace lets checksum-only bulk puts hash a slice's own memory: on a
// little-endian host with 64-bit int it already is the wire format. A
// variable so that tests run the chunked path on any host.
var sumInPlace = hostLittleEndian && intIs64

// putBulk emits the words of vs through put, bulkChunk bytes at a time,
// extending the running checksum over each chunk as soon as it is written.
// In checksum-only mode each chunk is written to the scratch buffer, or,
// under sumInPlace, nothing is written and the CRC reads vs directly.
func putBulk[T float64 | int](e *Encoder, vs []T, put func(dst []byte, vs []T)) {
	if e.sumOnly && sumInPlace {
		e.n += 8 * len(vs)
		if len(vs) > 0 {
			e.sum = crc32.Update(e.sum, castagnoli, unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), 8*len(vs)))
		}
		return
	}
	off := len(e.buf)
	if !e.sumOnly {
		e.buf = grow(e.buf, 8*len(vs))
	}
	const words = bulkChunk / 8
	for lo := 0; lo < len(vs); lo += words {
		hi := min(lo+words, len(vs))
		var dst []byte
		if e.sumOnly {
			dst = e.next(8 * (hi - lo))
		} else {
			dst = e.buf[off+8*lo : off+8*hi]
		}
		put(dst, vs[lo:hi])
		e.sum = crc32.Update(e.sum, castagnoli, dst)
	}
}

// PutFloat64s emits a length-prefixed float slice through the bulk path,
// compressed when the Encoder carries a Compressor.
func (e *Encoder) PutFloat64s(vs []float64) {
	if e.comp != nil {
		off := len(e.buf)
		e.buf = e.comp.AppendFloat64s(e.buf, vs)
		e.update(off)
		return
	}
	e.PutInt(len(vs))
	putBulk(e, vs, putFloat64s)
}

// PutInts emits a length-prefixed int slice through the bulk path,
// compressed when the Encoder carries a Compressor.
func (e *Encoder) PutInts(vs []int) {
	if e.comp != nil {
		off := len(e.buf)
		e.buf = e.comp.AppendInts(e.buf, vs)
		e.update(off)
		return
	}
	e.PutInt(len(vs))
	putBulk(e, vs, putInts)
}
