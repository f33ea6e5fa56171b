package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/obs"
)

// pipePair returns two frameConns joined by an in-memory duplex pipe, the
// way a coordinator and a worker see one TCP connection.
func pipePair(t *testing.T) (*frameConn, *frameConn) {
	t.Helper()
	a, b := net.Pipe()
	fa, fb := newFrameConn(a, time.Minute), newFrameConn(b, time.Minute)
	t.Cleanup(func() { fa.close(); fb.close() })
	return fa, fb
}

// byteConn is the read side of a connection over fixed bytes: what a
// frameConn sees of a peer that sent exactly those bytes and hung up.
type byteConn struct {
	net.Conn // nil: the decode path uses nothing but Read and Close
	r        *bytes.Reader
}

func (c byteConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c byteConn) Close() error               { return nil }

func decoderOver(data []byte) *frameConn {
	return newFrameConn(byteConn{r: bytes.NewReader(data)}, time.Minute)
}

// encodeFrames returns the wire bytes of the given frames and each
// frame's footprint as the sender accounted it.
func encodeFrames(t testing.TB, frames ...*frame) ([]byte, []int) {
	t.Helper()
	a, b := net.Pipe()
	fc := newFrameConn(a, time.Minute)
	got := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(b)
		got <- data
	}()
	var ns []int
	for _, f := range frames {
		n, err := fc.write(f)
		if err != nil {
			t.Fatalf("write %v: %v", f.Type, err)
		}
		ns = append(ns, n)
	}
	fc.close()
	return <-got, ns
}

// testFrames is a representative mixed sequence: handshake, beats, a
// kernel task with puts, re-keys and drops, its result, and the control
// frames.
func testFrames() []*frame {
	task := &kernel.Task{
		Name:   "wiretest.noop",
		I64:    []int64{1, 2, 3},
		F64:    []float64{0.5, 0.25},
		Refs:   []kernel.Ref{{Handle: 7, Key: 0, Ver: 3}},
		Puts:   []kernel.Blob{{Handle: 7, Key: 0, Ver: 3, Data: []byte("payload")}},
		Rekeys: []kernel.Rekey{{From: 4, To: 7, Key: 2}, {From: 4, To: 7, Key: -1}},
		Drops:  []uint64{5, 6},
	}
	return []*frame{
		{Type: fHello, From: 1, Ver: wireVersion},
		{Type: fHeartbeat, From: 1},
		{Type: fTask, To: 1, Seq: 1, Task: task},
		{Type: fResult, From: 1, Seq: 1, Result: &kernel.Result{F64: []float64{1, 2}}},
		{Type: fHeartbeat, From: 1},
		{Type: fKill, To: 1},
		{Type: fTask, To: 1, Seq: 2, Task: task},
		{Type: fResult, From: 1, Seq: 2, Result: &kernel.Result{Err: "no luck", Frames: [][]byte{{1}, nil, {2, 3}}}},
		{Type: fBye, To: 1},
	}
}

// randomFrame draws a frame of the given type with nblobs blobs where the
// type can carry them (task and result: nblobs-1 puts or frames plus the
// payload; no other type carries any). Blob sizes include empty, one
// byte, and sizes either side of the reader's buffer.
func randomFrame(rng *rand.Rand, typ frameType, nblobs int) *frame {
	blob := func() []byte {
		sizes := []int{0, 1, 7, 64, 4095, 4097, 70000}
		b := make([]byte, sizes[rng.Intn(len(sizes))])
		rng.Read(b)
		return b
	}
	f := &frame{Type: typ, From: rng.Int31(), To: -rng.Int31(), Ver: rng.Uint32(), Seq: rng.Uint64()}
	switch typ {
	case fTask:
		t := &kernel.Task{Name: "wiretest.random", Place: rng.Int31(), Payload: blob()}
		for i := rng.Intn(4); i > 0; i-- {
			t.I64 = append(t.I64, -rng.Int63())
			t.F64 = append(t.F64, rng.NormFloat64())
			t.Refs = append(t.Refs, kernel.Ref{Handle: rng.Uint64(), Key: -rng.Int63(), Ver: rng.Uint64()})
			t.Rekeys = append(t.Rekeys, kernel.Rekey{From: rng.Uint64(), To: rng.Uint64(), Key: -rng.Int63()})
			t.Drops = append(t.Drops, rng.Uint64())
		}
		for i := 1; i < nblobs; i++ {
			t.Puts = append(t.Puts, kernel.Blob{Handle: rng.Uint64(), Key: rng.Int63(), Ver: rng.Uint64(), Data: blob()})
		}
		f.Task = t
	case fResult:
		r := &kernel.Result{Payload: blob(), Err: []string{"", "kernel said no"}[rng.Intn(2)]}
		for i := rng.Intn(4); i > 0; i-- {
			r.F64 = append(r.F64, rng.NormFloat64())
		}
		for i := 1; i < nblobs; i++ {
			r.Frames = append(r.Frames, blob())
		}
		f.Result = r
	}
	return f
}

// normalize maps every empty slice of a frame to nil and drops what never
// crosses the wire, so reflect.DeepEqual compares content.
func normalize(f *frame) *frame {
	nilIfEmpty := func(b []byte) []byte {
		if len(b) == 0 {
			return nil
		}
		return b
	}
	g := *f
	if f.Task != nil {
		t := *f.Task
		t.Payload = nilIfEmpty(t.Payload)
		t.Puts = append([]kernel.Blob(nil), t.Puts...)
		for i := range t.Puts {
			t.Puts[i].Data = nilIfEmpty(t.Puts[i].Data)
		}
		g.Task = &t
	}
	if f.Result != nil {
		r := *f.Result
		r.Payload, r.Pooled = nilIfEmpty(r.Payload), false
		r.Frames = append([][]byte(nil), r.Frames...)
		for i := range r.Frames {
			r.Frames[i] = nilIfEmpty(r.Frames[i])
		}
		g.Result = &r
	}
	return &g
}

// TestWireFootprintSenderEqualsReceiver pins the wire-accounting contract
// behind the transport.tcp.wire_bytes counter: the footprint write
// reports for a frame is exactly the footprint read reports on the other
// side — and exactly the bytes that crossed — so the sender-side counter
// equals what a receiver would sum.
func TestWireFootprintSenderEqualsReceiver(t *testing.T) {
	frames := testFrames()
	rng := rand.New(rand.NewSource(3))
	for _, typ := range []frameType{fHeartbeat, fTask, fResult} {
		frames = append(frames, randomFrame(rng, typ, 1+rng.Intn(8)))
	}
	data, wrote := encodeFrames(t, frames...)
	receiver := decoderOver(data)
	var sum int
	for i, want := range wrote {
		var f frame
		n, err := receiver.read(&f)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if n != want {
			t.Errorf("frame %d (%v): sender counted %d bytes, receiver %d", i, frames[i].Type, want, n)
		}
		sum += n
	}
	if sum != len(data) {
		t.Fatalf("frames account for %d bytes, %d crossed the wire", sum, len(data))
	}
	// A blob-bearing frame costs its blobs plus a fixed, small overhead:
	// no per-byte encoding tax.
	blob := make([]byte, 1<<20)
	big := &frame{Type: fTask, Task: &kernel.Task{Name: "wiretest.big", Puts: []kernel.Blob{{Data: blob}}}}
	if _, ns := encodeFrames(t, big); ns[0] > len(blob)+4+headerLen+256 {
		t.Fatalf("task frame with a 1 MiB put costs %d bytes on the wire", ns[0])
	}
}

// TestWireRoundTripPreservesFrames is the round-trip property: every
// frame type, with 0 to 8 blobs where it carries blobs (empty and
// one-byte blobs included), decodes back to what was written, in a mixed
// stream with no state bleeding between frames.
func TestWireRoundTripPreservesFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(20150525))
	frames := testFrames()
	for _, typ := range []frameType{fHello, fHeartbeat, fKill, fBye, fTask, fResult} {
		for nblobs := 0; nblobs <= 8; nblobs++ {
			frames = append(frames, randomFrame(rng, typ, nblobs))
		}
	}
	rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })

	sender, receiver := pipePair(t)
	go func() {
		for _, f := range frames {
			if _, err := sender.write(f); err != nil {
				t.Errorf("write %v: %v", f.Type, err)
				return
			}
		}
	}()
	for i, want := range frames {
		var got frame
		if _, err := receiver.read(&got); err != nil {
			t.Fatalf("read frame %d (%v): %v", i, want.Type, err)
		}
		if !reflect.DeepEqual(normalize(&got), normalize(want)) {
			t.Fatalf("frame %d (%v) decoded as\n%+v\nwant\n%+v", i, want.Type, normalize(&got), normalize(want))
		}
		if want.Result != nil && !got.Result.Pooled {
			t.Fatalf("frame %d: result read off the wire is not marked pool-backed", i)
		}
	}
}

// dataFrameType is the type byte of the DATA frame that wire versions up
// to 4 carried for every runtime hop; version 5 deleted it.
const dataFrameType = 3

// TestWireDataFrameIsDecodeError pins that the DATA frame is gone: a
// well-formed header of its type — bare, as version 4 sent it, or
// declaring a blob — is a decode error, not a frame to drain.
func TestWireDataFrameIsDecodeError(t *testing.T) {
	data, _ := encodeFrames(t, &frame{Type: fHeartbeat, From: 1})
	data[4] = dataFrameType
	le := binary.LittleEndian
	const n = 100000
	withBlob := append([]byte(nil), data...)
	le.PutUint32(withBlob[0:], uint32(headerLen+4+n))
	le.PutUint16(withBlob[5:], 1)
	withBlob = le.AppendUint32(withBlob, n)
	withBlob = append(withBlob, make([]byte, n)...)
	for name, b := range map[string][]byte{"bare": data, "with a blob": withBlob} {
		var f frame
		if _, err := decoderOver(b).read(&f); err == nil || err == io.EOF {
			t.Fatalf("%s DATA frame: read = %v, want a decode error", name, err)
		}
	}
}

// TestWireTruncatedAtEveryOffset cuts a mixed stream at every byte: the
// frames before the cut decode, the cut one is an error — a clean EOF
// only exactly between frames — and nothing panics.
func TestWireTruncatedAtEveryOffset(t *testing.T) {
	data, wrote := encodeFrames(t, testFrames()...)
	for cut := 0; cut < len(data); cut++ {
		fc := decoderOver(data[:cut])
		off := 0
		for i := 0; ; i++ {
			var f frame
			n, err := fc.read(&f)
			if err == nil {
				if n != wrote[i] || off+n > cut {
					t.Fatalf("cut %d: frame %d decoded with %d bytes at offset %d", cut, i, n, off)
				}
				off += n
				continue
			}
			if (err == io.EOF) != (off == cut) {
				t.Fatalf("cut %d: frame %d at offset %d failed with %v", cut, i, off, err)
			}
			break
		}
	}
}

// TestWireRejectsOversizeBeforeAllocating feeds headers whose declared
// lengths are inconsistent or beyond maxFrameLen: each is rejected from
// the header and table alone, without allocating for the blobs it
// claims.
func TestWireRejectsOversizeBeforeAllocating(t *testing.T) {
	le := binary.LittleEndian
	header := func(total uint32, typ frameType, nblobs uint16, metaLen uint32, table ...uint32) []byte {
		b := make([]byte, 4+headerLen)
		le.PutUint32(b[0:], total)
		b[4] = byte(typ)
		le.PutUint16(b[5:], nblobs)
		le.PutUint32(b[27:], metaLen)
		for _, n := range table {
			b = le.AppendUint32(b, n)
		}
		return b
	}
	const big = maxFrameLen - headerLen - 4
	cases := map[string][]byte{
		"length past the limit":           header(maxFrameLen+1, fHeartbeat, 0, 0),
		"v2 big-endian gob prefix":        {0, 0, 0, 95, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27},
		"shorter than its header":         header(headerLen-1, fHeartbeat, 0, 0),
		"meta longer than the frame":      header(headerLen+8, fTask, 0, 9),
		"blob table longer than frame":    header(headerLen+8, fKill, 3, 0),
		"blob longer than the frame":      header(headerLen+4+10, fKill, 1, 0, 1<<30),
		"blobs sum past the frame":        header(headerLen+8+10, fTask, 2, 0, 6, 6),
		"blobs sum short of the frame":    header(headerLen+4+10, fKill, 1, 0, 9),
		"a blob on a kill frame":          append(header(headerLen+4+1, fKill, 1, 0, 1), 7),
		"two blobs on a bye frame":        append(header(headerLen+8+2, fBye, 2, 0, 1, 1), 7, 7),
		"meta on a heartbeat":             append(header(headerLen+1, fHeartbeat, 0, 1), 7),
		"blob count beyond the task meta": append(header(headerLen+8+2, fTask, 2, 0, 1, 1), 7, 7),
		"a bare DATA frame":               header(headerLen, dataFrameType, 0, 0),
		"type zero":                       header(headerLen, 0, 0, 0),
		"type past the last":              header(headerLen, fResult+1, 0, 0),
	}
	for name, data := range cases {
		var f frame
		if _, err := decoderOver(data).read(&f); err == nil || err == io.EOF {
			t.Errorf("%s: read = %v, want a decode error", name, err)
		}
	}

	// A maximal legal blob whose bytes never arrive is the one case that
	// must allocate; an illegal one of the same size must not.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < 4; i++ {
		var f frame
		if _, err := decoderOver(header(headerLen+4+big-1, fResult, 1, 0, big)).read(&f); err == nil {
			t.Fatal("inconsistent 256 MiB blob accepted")
		}
	}
	runtime.ReadMemStats(&ms)
	if grew := ms.TotalAlloc - before; grew > 1<<20 {
		t.Fatalf("rejecting oversize frames allocated %d bytes", grew)
	}
}

// TestWireWriteRefusesOversizeFrame: the sender refuses what a receiver
// would reject, before touching the wire.
func TestWireWriteRefusesOversizeFrame(t *testing.T) {
	sender, _ := pipePair(t)
	half := make([]byte, maxFrameLen/2)
	task := &kernel.Task{Name: "wiretest.big", Puts: []kernel.Blob{{Data: half}, {Data: half}}}
	if _, err := sender.write(&frame{Type: fTask, Task: task}); err == nil {
		t.Fatal("frame past maxFrameLen written")
	}
	if _, err := sender.write(&frame{Type: fResult, Result: &kernel.Result{Frames: make([][]byte, maxBlobs+1)}}); err == nil {
		t.Fatal("frame past maxBlobs written")
	}
}

// FuzzFrameDecode throws arbitrary bytes at the frame reader: it may
// reject them, never panic, never accept a DATA frame (the seeds include
// one as version 4 wrote it and one in today's header), and whatever it
// accepts re-encodes to a frame that decodes to the same content.
func FuzzFrameDecode(f *testing.F) {
	valid, _ := encodeFrames(f, testFrames()...)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{0, 0, 0, 95})
	v4data := make([]byte, 4+36) // v4: prefix + its 36-byte header
	binary.LittleEndian.PutUint32(v4data, 36)
	v4data[4] = dataFrameType
	f.Add(v4data)
	v5data := append([]byte(nil), valid[:4+headerLen]...) // the hello's header
	v5data[4] = dataFrameType
	f.Add(v5data)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 && binary.LittleEndian.Uint32(data) > uint32(len(data)) {
			// A frame longer than the input can only end in a short read;
			// skip it so the fuzzer does not spend its time allocating for
			// maximal blobs that never arrive (the truncation test covers
			// short reads at every offset).
			return
		}
		fc := decoderOver(data)
		for {
			var got frame
			if _, err := fc.read(&got); err != nil {
				return
			}
			if got.Type == dataFrameType {
				t.Fatal("a DATA frame was accepted")
			}
			re, _ := encodeFrames(t, &got)
			var again frame
			if _, err := decoderOver(re).read(&again); err != nil {
				t.Fatalf("re-encoded frame does not decode: %v", err)
			}
			if !reflect.DeepEqual(normalize(&again), normalize(&got)) {
				t.Fatalf("re-encoded frame decodes differently:\n%+v\n%+v", normalize(&again), normalize(&got))
			}
		}
	})
}

// TestWriteDeadlineBreaksStalledConnection pins the rule that every write
// carries a deadline: against a peer that never reads, write returns an
// error within the timeout instead of blocking under the write lock, and
// the connection is closed — half a frame may be on the wire.
func TestWriteDeadlineBreaksStalledConnection(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	fc := newFrameConn(a, 50*time.Millisecond)
	start := time.Now()
	_, err := fc.write(&frame{Type: fTask, Task: &kernel.Task{Name: "wiretest.stall", Puts: []kernel.Blob{{Data: make([]byte, 1<<16)}}}})
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("write to a stalled peer = %v, want a timeout", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("stalled write took %v", took)
	}
	if _, err := fc.write(&frame{Type: fHeartbeat}); err == nil {
		t.Fatal("connection still writable after a timed-out frame")
	}
}

// TestHelloVersionRejected verifies the coordinator refuses a worker
// speaking a different wire version at the handshake — closing the
// connection and counting the rejection — instead of admitting a peer it
// would misdecode later. A version-2 peer's gob hello does not even parse
// as a frame and is turned away the same way. A current-version body
// joins fine: Start completes with no rejection counted.
func TestHelloVersionRejected(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewInProcess(nil, WithObs(reg), WithHeartbeat(10*time.Millisecond, 2*time.Second))
	if err := tr.Start(2, transport.Handler{}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()
	if got := reg.CounterValue("transport.tcp.hello_rejected"); got != 0 {
		t.Fatalf("hello_rejected = %d after current-version bodies joined, want 0", got)
	}

	// Each stale hello is written whole or until the coordinator hangs up
	// on it mid-hello (a pipe has no buffer), so its write error is moot.
	stale := map[string]func(conn net.Conn){
		"v3 framing, version 2": func(conn net.Conn) {
			newFrameConn(conn, time.Second).write(&frame{Type: fHello, From: 1, Ver: 2})
		},
		"v3 framing, version 3 (tasks without re-keys)": func(conn net.Conn) {
			newFrameConn(conn, time.Second).write(&frame{Type: fHello, From: 1, Ver: 3})
		},
		"v4 framing (36-byte header with class and size)": func(conn net.Conn) {
			b := make([]byte, 4+36)
			le := binary.LittleEndian
			le.PutUint32(b[0:], 36)
			b[4] = byte(fHello)
			le.PutUint32(b[8:], 1)  // from
			le.PutUint32(b[16:], 4) // version
			conn.Write(b)
		},
		"v2 framing (big-endian length, gob body)": func(conn net.Conn) {
			conn.Write(append([]byte{0, 0, 0, 95}, make([]byte, 95)...))
		},
	}
	rejected := int64(0)
	for name, hello := range stale {
		conn := tr.dialPipe()
		hello(conn)
		var f frame
		if _, err := newFrameConn(conn, time.Second).read(&f); err == nil {
			t.Fatalf("%s: coordinator answered a stale hello with a %v frame; want closed connection", name, f.Type)
		}
		conn.Close()
		// admit counts a rejection before it hangs up.
		rejected++
		if got := reg.CounterValue("transport.tcp.hello_rejected"); got != rejected {
			t.Fatalf("%s: hello_rejected = %d, want %d", name, got, rejected)
		}
	}
	if _, err := tr.Send(0, 1, transport.ClassTask, 0, nil); err != nil {
		t.Fatalf("Send to place 1 after the stale hellos: %v", err)
	}
}

// stallAt gives every place but p serve, and p the stand-in body of a
// stopped process behind a full socket buffer: it joins, keeps
// heartbeating every interval (so only a write deadline can find it) and
// never reads.
func stallAt(p int, interval, timeout time.Duration) func(conn net.Conn, place int) error {
	return func(conn net.Conn, place int) error {
		if place != p {
			return serve(conn, place, interval, timeout)
		}
		fc := newFrameConn(conn, time.Minute)
		if _, err := fc.write(&frame{Type: fHello, From: int32(place), Ver: wireVersion}); err != nil {
			return err
		}
		beat := time.NewTicker(interval)
		defer beat.Stop()
		for range beat.C {
			if _, err := fc.write(&frame{Type: fHeartbeat, From: int32(place)}); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestStalledWorkerSurfacesAsConnLost plays the SIGSTOPped worker with a
// full socket buffer: a body that joins, keeps heartbeating, and never
// reads. The write deadline turns the blocked Exec into an error within
// the detector timeout, the place is reported dead exactly once, as a
// connection loss, and Send to it fails from then on.
func TestStalledWorkerSurfacesAsConnLost(t *testing.T) {
	const interval, timeout = 10 * time.Millisecond, 300 * time.Millisecond
	tr := NewInProcess(stallAt(1, interval, timeout), WithHeartbeat(interval, timeout))
	type death struct {
		place int
		cause transport.DeathCause
	}
	deaths := make(chan death, 4)
	if err := tr.Start(2, transport.Handler{
		PlaceDead: func(p int, c transport.DeathCause) { deaths <- death{p, c} },
	}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()

	// A TASK frame carrying a 4 MiB put blocks on a peer that never
	// reads: the call must fail, and within a few timeouts.
	payload := make([]byte, 4<<20)
	start := time.Now()
	if _, err := tr.Exec(&kernel.Task{Name: kernel.PutName, Place: 1, Puts: []kernel.Blob{{Handle: 1, Data: payload}}}); err == nil {
		t.Fatal("a call succeeded against a peer that never reads")
	}
	if took := time.Since(start); took > 10*timeout {
		t.Fatalf("call failed only after %v", took)
	}
	select {
	case d := <-deaths:
		if d.place != 1 || d.cause != transport.CauseConn {
			t.Fatalf("death report %+v, want place 1 by connection loss", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled place never reported dead")
	}
	if _, err := tr.Send(0, 1, transport.ClassSnapshot, len(payload), nil); err == nil {
		t.Fatal("Send to the stalled place succeeded after its death")
	}
	select {
	case d := <-deaths:
		t.Fatalf("duplicate death report: %+v", d)
	case <-time.After(2 * timeout):
	}
}
