// Package codec provides the compact little-endian binary encoding used to
// serialize matrix and vector fragments into snapshot storage. Checkpoint
// cost in the paper is dominated by copying real data to the local and
// backup stores; serializing to bytes here keeps that cost physical in the
// emulation instead of a pointer swap.
//
// Slice payloads move through bulk word-wise paths: on little-endian hosts
// (where the wire format equals the in-memory representation) a single
// memmove copies the whole payload, elsewhere an unrolled
// binary.LittleEndian loop produces byte-identical output. The Encoder
// folds CRC-32C computation into the encode pass (chunk by chunk, so the
// checksum reads bytes still in cache), and the buffer pool
// (GetBuffer/PutBuffer) recycles checkpoint buffers across the
// double-buffered snapshot cycle so steady-state checkpoints allocate
// nothing for payloads.
package codec

import (
	"encoding/binary"
	"errors"
	"math"
	"unsafe"
)

// ErrShortBuffer is returned when a decode runs past the end of its input.
var ErrShortBuffer = errors.New("codec: short buffer")

// hostLittleEndian gates the memmove fast path: when the host memory
// layout already matches the little-endian wire format, slice payloads are
// copied wholesale instead of word by word. int must also be 64-bit for
// the []int fast path, matching the fixed 8-byte wire width.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

const intIs64 = unsafe.Sizeof(int(0)) == 8

// grow extends b by n bytes and returns the extended slice. The new bytes
// are uninitialized; callers overwrite all of them.
func grow(b []byte, n int) []byte {
	if len(b)+n <= cap(b) {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n, (len(b)+n)*3/2+64)
	copy(nb, b)
	return nb
}

// SizeInt is the encoded size of one int (or uint64 or float64).
const SizeInt = 8

// SizeFloat64s returns the encoded size of a length-n float slice.
func SizeFloat64s(n int) int { return SizeInt + 8*n }

// SizeInts returns the encoded size of a length-n int slice.
func SizeInts(n int) int { return SizeInt + 8*n }

// AppendUint64 appends v in little-endian order.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendInt appends an int as a uint64.
func AppendInt(b []byte, v int) []byte {
	return AppendUint64(b, uint64(int64(v)))
}

// AppendFloat64 appends the IEEE-754 bits of v.
func AppendFloat64(b []byte, v float64) []byte {
	return AppendUint64(b, math.Float64bits(v))
}

// AppendFloat64s appends a length header followed by the raw values,
// bulk-copied word-wise.
func AppendFloat64s(b []byte, vs []float64) []byte {
	b = AppendInt(b, len(vs))
	off := len(b)
	b = grow(b, 8*len(vs))
	putFloat64s(b[off:], vs)
	return b
}

// AppendInts appends a length header followed by the values, bulk-copied
// word-wise.
func AppendInts(b []byte, vs []int) []byte {
	b = AppendInt(b, len(vs))
	off := len(b)
	b = grow(b, 8*len(vs))
	putInts(b[off:], vs)
	return b
}

// putFloat64s writes the little-endian words of vs to dst[:8*len(vs)].
func putFloat64s(dst []byte, vs []float64) {
	if len(vs) == 0 {
		return
	}
	if hostLittleEndian {
		copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), 8*len(vs)))
		return
	}
	i := 0
	for ; i+4 <= len(vs); i += 4 {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(vs[i]))
		binary.LittleEndian.PutUint64(dst[8*i+8:], math.Float64bits(vs[i+1]))
		binary.LittleEndian.PutUint64(dst[8*i+16:], math.Float64bits(vs[i+2]))
		binary.LittleEndian.PutUint64(dst[8*i+24:], math.Float64bits(vs[i+3]))
	}
	for ; i < len(vs); i++ {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(vs[i]))
	}
}

// putInts writes the little-endian words of vs to dst[:8*len(vs)].
func putInts(dst []byte, vs []int) {
	if len(vs) == 0 {
		return
	}
	if hostLittleEndian && intIs64 {
		copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), 8*len(vs)))
		return
	}
	i := 0
	for ; i+4 <= len(vs); i += 4 {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(int64(vs[i])))
		binary.LittleEndian.PutUint64(dst[8*i+8:], uint64(int64(vs[i+1])))
		binary.LittleEndian.PutUint64(dst[8*i+16:], uint64(int64(vs[i+2])))
		binary.LittleEndian.PutUint64(dst[8*i+24:], uint64(int64(vs[i+3])))
	}
	for ; i < len(vs); i++ {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(int64(vs[i])))
	}
}

// Uint64 decodes a uint64, returning the remaining input.
func Uint64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrShortBuffer
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

// Int decodes an int, returning the remaining input.
func Int(b []byte) (int, []byte, error) {
	v, rest, err := Uint64(b)
	return int(int64(v)), rest, err
}

// Float64 decodes a float64, returning the remaining input.
func Float64(b []byte) (float64, []byte, error) {
	v, rest, err := Uint64(b)
	return math.Float64frombits(v), rest, err
}

// Float64s decodes a length-prefixed float slice via the bulk path.
func Float64s(b []byte) ([]float64, []byte, error) {
	return Float64sInto(nil, b)
}

// Float64sInto is Float64s decoding into dst's backing storage when its
// capacity suffices, so restores that overwrite an existing allocation
// (same-grid block restore, segment restore) stay allocation-free. The
// returned slice aliases dst only in that case; its length is always the
// decoded element count.
func Float64sInto(dst []float64, b []byte) ([]float64, []byte, error) {
	n, b, err := Int(b)
	if err != nil {
		return nil, nil, err
	}
	if n < 0 || n > len(b)/8 {
		return nil, nil, ErrShortBuffer
	}
	var vs []float64
	if cap(dst) >= n {
		vs = dst[:n]
	} else {
		vs = make([]float64, n)
	}
	if n == 0 {
		return vs, b, nil
	}
	src := b[:8*n]
	if hostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), 8*n), src)
		return vs, b[8*n:], nil
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		vs[i+1] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i+8:]))
		vs[i+2] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i+16:]))
		vs[i+3] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i+24:]))
	}
	for ; i < n; i++ {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return vs, b[8*n:], nil
}

// Ints decodes a length-prefixed int slice via the bulk path.
func Ints(b []byte) ([]int, []byte, error) {
	return IntsInto(nil, b)
}

// IntsInto is Ints decoding into dst's backing storage when its capacity
// suffices (see Float64sInto).
func IntsInto(dst []int, b []byte) ([]int, []byte, error) {
	n, b, err := Int(b)
	if err != nil {
		return nil, nil, err
	}
	if n < 0 || n > len(b)/8 {
		return nil, nil, ErrShortBuffer
	}
	var vs []int
	if cap(dst) >= n {
		vs = dst[:n]
	} else {
		vs = make([]int, n)
	}
	if n == 0 {
		return vs, b, nil
	}
	src := b[:8*n]
	if hostLittleEndian && intIs64 {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), 8*n), src)
		return vs, b[8*n:], nil
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		vs[i] = int(int64(binary.LittleEndian.Uint64(src[8*i:])))
		vs[i+1] = int(int64(binary.LittleEndian.Uint64(src[8*i+8:])))
		vs[i+2] = int(int64(binary.LittleEndian.Uint64(src[8*i+16:])))
		vs[i+3] = int(int64(binary.LittleEndian.Uint64(src[8*i+24:])))
	}
	for ; i < n; i++ {
		vs[i] = int(int64(binary.LittleEndian.Uint64(src[8*i:])))
	}
	return vs, b[8*n:], nil
}
