package tcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/codec"
)

// Wire format v5: every message, of all six types, is one flat frame,
// little-endian throughout.
//
//	prefix  u32  bytes that follow (≤ maxFrameLen)
//	header  u8 type | u16 nblobs | i32 from | i32 to | u32 ver | u64 seq
//	        | u32 metaLen                                       (headerLen)
//	meta    metaLen bytes: the kernel.Task of an fTask or kernel.Result of
//	        an fResult, flat-encoded by internal/apgas/kernel; empty otherwise
//	table   nblobs × u32 blob length
//	blobs   the blob bytes, back to back
//
// Blobs are the bulk payloads — a task's Puts[i].Data and Payload, a
// result's Frames and Payload. Only those two frame types carry meta or
// blobs; every other frame is its header alone, and a reader rejects one
// that declares either, or a type outside the six. The sender never
// copies them: one vectored write takes header, meta and table from a
// per-connection scratch buffer and each blob from the caller's own
// slice. The receiver reads each into a codec.GetBuffer buffer that
// becomes the decoded frame's slice. Sender and receiver account the same
// footprint for a frame: prefix plus the length it states. maxFrameLen
// bounds a single frame, and every inner length is checked against the
// frame's own before anything is allocated for it (a corrupt or hostile
// length must not allocate gigabytes).
const maxFrameLen = 1 << 28 // 256 MiB

// wireVersion is the frame-stream format version, carried in the hello
// handshake; the coordinator rejects a hello that does not declare it.
// Version 3 replaced the length-prefixed gob stream of version 2, whose
// hello does not even parse as a v3 frame (its big-endian length reads as
// an oversized little-endian one) and is rejected the same way. Version 4
// added the task's re-key table (kernel.Task.Rekeys) to the task meta and
// made DATA frames footprint-only. Version 5 deleted the DATA frame — a
// runtime hop puts nothing on the wire — and with it the header's class
// and declared-size fields; a DATA frame's type is now malformed. A v4
// hello does not parse as a v5 frame (its header is nine bytes longer)
// and is rejected like any other.
const wireVersion = 5

// frameType discriminates the messages crossing a coordinator-worker
// connection.
type frameType uint8

const (
	// fHello is the handshake: the worker's first frame, announcing which
	// place it embodies and which wire version it speaks.
	fHello frameType = iota + 1
	// fHeartbeat is the worker's periodic liveness beacon.
	fHeartbeat
	_ // 3: the DATA frame of wire versions up to 4, malformed since 5
	// fKill tells a worker to fail-stop immediately (administrative kill).
	fKill
	// fBye tells a worker the run is over; it exits cleanly.
	fBye
	// fTask dispatches one registered-kernel task to the worker for
	// execution (coordinator → worker only).
	fTask
	// fResult returns a task's result, matched to its fTask by Seq
	// (worker → coordinator only).
	fResult
)

// String implements fmt.Stringer.
func (t frameType) String() string {
	switch t {
	case fHello:
		return "hello"
	case fHeartbeat:
		return "heartbeat"
	case fKill:
		return "kill"
	case fBye:
		return "bye"
	case fTask:
		return "task"
	case fResult:
		return "result"
	}
	return "unknown"
}

// frame is the unit of exchange on a coordinator-worker connection.
type frame struct {
	Type frameType
	From int32
	To   int32
	// Ver is the wire-format version, meaningful only on fHello.
	Ver uint32
	// Seq pairs an fResult with the fTask it answers; unique per
	// coordinator run.
	Seq uint64
	// Task is the kernel invocation of an fTask frame.
	Task *kernel.Task
	// Result is the kernel outcome of an fResult frame.
	Result *kernel.Result
}

// headerLen is the fixed header that follows the length prefix.
const headerLen = 27

// maxBlobs bounds the blobs of one frame (the header counts them in 16
// bits).
const maxBlobs = 1<<16 - 1

// writeFloor is the slowest transfer a healthy peer is assumed to
// sustain: a frame's write deadline is the detector timeout plus its
// size at this rate, so a 256 MiB frame is not declared stuck by a
// quarter-second timeout while a stopped peer still is.
const writeFloor = 64 << 20 // bytes per second

// frameConn wraps one side of a connection with the framing above. Writes
// are serialized by a mutex so heartbeats, task, result and control frames
// from different goroutines interleave at frame granularity, and each
// carries a deadline; reads are single-goroutine by construction (one
// reader per connection).
type frameConn struct {
	c net.Conn
	// wtimeout bounds how long one frame may sit in write before the peer
	// counts as gone (see writeFloor).
	wtimeout time.Duration

	wmu  sync.Mutex
	wbuf []byte   // prefix + header + meta + blob table of the frame being written
	wvec [][]byte // the write vector: wbuf, then the frame's blobs

	r    *bufio.Reader
	rbuf []byte // meta + blob table of the frame being read

	once sync.Once
}

func newFrameConn(c net.Conn, wtimeout time.Duration) *frameConn {
	return &frameConn{c: c, wtimeout: wtimeout, r: bufio.NewReader(c)}
}

// write sends one frame with a single vectored write — header, meta and
// blob table from the connection's scratch buffer, every blob straight
// from the caller's slice — and returns its wire footprint, mirroring
// read. A frame is either fully sent or the connection is closed: a
// failed or timed-out write may have left half a frame on the wire.
func (fc *frameConn) write(f *frame) (int, error) {
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	b := append(fc.wbuf[:0], make([]byte, 4+headerLen)...)
	vec := append(fc.wvec[:0], nil) // slot 0 is b's, once b has stopped growing
	switch f.Type {
	case fTask:
		b, vec = f.Task.AppendWire(b, vec)
	case fResult:
		b, vec = f.Result.AppendWire(b, vec)
	}
	blobs := vec[1:]
	metaLen := len(b) - 4 - headerLen
	if len(blobs) > maxBlobs {
		return 0, fmt.Errorf("tcp: %v frame with %d blobs exceeds limit %d", f.Type, len(blobs), maxBlobs)
	}
	le := binary.LittleEndian
	total := int64(len(b) - 4 + 4*len(blobs))
	for _, blob := range blobs {
		b = le.AppendUint32(b, uint32(len(blob)))
		total += int64(len(blob))
	}
	if total > maxFrameLen {
		return 0, fmt.Errorf("tcp: %v frame of %d bytes exceeds limit %d", f.Type, total, maxFrameLen)
	}
	le.PutUint32(b[0:], uint32(total))
	b[4] = byte(f.Type)
	le.PutUint16(b[5:], uint16(len(blobs)))
	le.PutUint32(b[7:], uint32(f.From))
	le.PutUint32(b[11:], uint32(f.To))
	le.PutUint32(b[15:], f.Ver)
	le.PutUint64(b[19:], f.Seq)
	le.PutUint32(b[27:], uint32(metaLen))

	// Empty blobs exist in the table only; the vector skips them.
	vec[0] = b
	n := 1
	for _, blob := range blobs {
		if len(blob) > 0 {
			vec[n] = blob
			n++
		}
	}
	fc.wbuf, fc.wvec = b, vec[:0]
	err := fc.c.SetWriteDeadline(time.Now().Add(fc.wtimeout + time.Duration(total)*time.Second/writeFloor))
	if err == nil {
		bufs := net.Buffers(vec[:n]) // WriteTo consumes its receiver; vec keeps the full view
		_, err = bufs.WriteTo(fc.c)
	}
	clear(vec) // the scratch vector must not pin the caller's blobs
	if err != nil {
		fc.close()
		return 0, err
	}
	return 4 + int(total), nil
}

// read decodes the next frame, blocking until one arrives or the
// connection breaks, and returns its wire footprint (prefix included).
// Every declared length is checked against the frame's own length — and
// that against maxFrameLen — before anything is allocated for it. Blobs
// are read straight into codec.GetBuffer buffers, which the decoded
// frame owns.
func (fc *frameConn) read(f *frame) (int, error) {
	var hdr [4 + headerLen]byte
	if _, err := io.ReadFull(fc.r, hdr[:]); err != nil {
		return 0, err
	}
	le := binary.LittleEndian
	total := int64(le.Uint32(hdr[0:]))
	nblobs := int64(le.Uint16(hdr[5:]))
	metaLen := int64(le.Uint32(hdr[27:]))
	if total > maxFrameLen {
		return 0, fmt.Errorf("tcp: frame length %d exceeds limit %d", total, maxFrameLen)
	}
	blobBytes := total - headerLen - metaLen - 4*nblobs
	if blobBytes < 0 {
		return 0, fmt.Errorf("tcp: frame of %d bytes cannot hold %d meta bytes and %d blob lengths", total, metaLen, nblobs)
	}
	*f = frame{
		Type: frameType(hdr[4]),
		From: int32(le.Uint32(hdr[7:])),
		To:   int32(le.Uint32(hdr[11:])),
		Ver:  le.Uint32(hdr[15:]),
		Seq:  le.Uint64(hdr[19:]),
	}
	switch f.Type {
	case fHello, fHeartbeat, fKill, fBye, fTask, fResult:
	default:
		return 0, fmt.Errorf("tcp: frame of unknown type %d", hdr[4])
	}
	if f.Type != fTask && f.Type != fResult && (metaLen != 0 || nblobs != 0) {
		return 0, fmt.Errorf("tcp: %v frame with %d meta bytes and %d blobs", f.Type, metaLen, nblobs)
	}
	if need := int(metaLen + 4*nblobs); cap(fc.rbuf) < need {
		fc.rbuf = make([]byte, need)
	}
	meta, table := fc.rbuf[:metaLen], fc.rbuf[metaLen:metaLen+4*nblobs]
	if _, err := io.ReadFull(fc.r, fc.rbuf[:metaLen+4*nblobs]); err != nil {
		return 0, noEOF(err)
	}
	var declared int64
	for i := int64(0); i < nblobs; i++ {
		declared += int64(le.Uint32(table[4*i:]))
	}
	if declared != blobBytes {
		return 0, fmt.Errorf("tcp: %v frame declares %d blob bytes, its length leaves %d", f.Type, declared, blobBytes)
	}
	var blobs [][]byte
	if nblobs > 0 {
		blobs = make([][]byte, nblobs)
	}
	for i := range blobs {
		n := int(le.Uint32(table[4*i:]))
		if n == 0 {
			continue
		}
		blobs[i] = codec.GetBuffer(n)[:n]
		if _, err := io.ReadFull(fc.r, blobs[i]); err != nil {
			return 0, noEOF(err)
		}
	}
	var err error
	switch f.Type {
	case fTask:
		f.Task, err = kernel.DecodeTask(meta, blobs)
	case fResult:
		f.Result, err = kernel.DecodeResult(meta, blobs, true)
	}
	if err != nil {
		return 0, err
	}
	return 4 + int(total), nil
}

// noEOF turns an end of stream inside a frame into the error it is: only
// between frames is EOF a clean close.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// close tears the connection down. Idempotent; concurrent with reads and
// writes (which then fail, which is the point).
func (fc *frameConn) close() {
	fc.once.Do(func() { fc.c.Close() })
}
