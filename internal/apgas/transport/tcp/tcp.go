// Package tcp is the multi-process transport backend: one place per OS
// process, connected by loopback-default TCP carrying flat length-prefixed
// frames (wire.go).
//
// Topology: place zero is the coordinator — the process that constructed
// the runtime. Every other place is embodied by a worker process holding
// one connection to it, and there is one way to get one: the coordinator
// re-executes its own binary with the RGML_TCP_WORKER environment set,
// tcp.MaybeWorker at the top of main turns that invocation into a worker,
// and the worker dials the coordinator's loopback listener (worker.go).
// Starting, killing and reaping a body sit behind the spawner seam
// (spawn.go); tests swap in bodies that run in-process over net.Pipe.
//
// Data plane: workers compute. Go cannot serialize closures, but named
// registered kernels (apgas.RegisterKernel + internal/apgas/kernel)
// travel as task descriptors: Exec ships a TASK frame to the worker
// owning the place, the worker's executor loop runs the kernel against
// its per-place blob store, and a RESULT frame carries the answer back.
// Blob payloads cross without a user-space copy on the sending side and
// land in pooled buffers on the receiving side (wire.go).
// Operand blobs cross once per version (the coordinator mirrors what
// each worker holds). A dispatch that fails against a dead worker or a
// connection lost mid-flight is that place's death: the runtime marks the
// place dead and the dispatching task gets DeadPlaceError, so a worker
// place's kernel runs nowhere but in its worker. A dispatch failed by
// shutdown is a plain error, and a kernel-level failure comes back in the
// RESULT frame and is the caller's error. Closure-based tasks that never
// registered a kernel still execute at the coordinator, and every other
// runtime message — task spawns, finish bookkeeping, bulk data and
// checkpoint traffic alike — puts nothing on the wire: the closure bodies
// and the snapshot store live at the coordinator, so Send only checks
// that the hop's endpoint has a live body. DESIGN.md §14 spells out this
// boundary.
//
// Process start stays off the recovery path: the backend
// keeps one standby worker, started and handshaken but not yet a place,
// and Grow adopts it as the first new place (see Grow).
//
// The workers also provide the real failure domain: a worker process
// dying (killed, crashed, unplugged) is a genuine fail-stop detected by
// heartbeat timeout or connection reset and fed into the runtime's
// dead-place broadcast path — the exact machinery the local backend
// exercises only through injected kills (DESIGN.md §12).
//
// Failure detection: each worker heartbeats on a configurable interval;
// the coordinator's transport.Detector declares a place dead after a
// configurable timeout without a beat, or immediately on connection
// error, whichever first (deduped). Administrative kills (Runtime.Kill,
// chaos) mark the place dead in the detector before destroying the
// worker, so no redundant report reaches the runtime and kill-driven
// recovery stays identical to the local backend's. Every write carries a
// deadline of the detector timeout, so a peer that stops reading (a
// stopped process behind a full socket buffer) surfaces as a connection
// loss instead of blocking its sender forever.
package tcp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/obs"
)

// workerEnv is the environment variable that turns a process into a
// worker: "addr|place|intervalNs|timeoutNs" (see MaybeWorker).
const workerEnv = "RGML_TCP_WORKER"

// Transport is the coordinator side of the multi-process backend.
type Transport struct {
	interval time.Duration
	timeout  time.Duration
	reg      *obs.Registry
	sp       spawner

	handler  transport.Handler
	detector *transport.Detector

	mu      sync.Mutex
	started bool
	closed  bool
	places  int
	// workers holds the live (or still joining) place bodies by place ID;
	// place 0 has none, and a dead place's record is deleted (forget).
	workers map[int]*worker
	// standby is the body spawned ahead of time for place id places (nil
	// while there is none). It is not a place:
	// it is kept out of workers, the detector does not watch it, and its
	// death is reported to no one, until Grow adopts it.
	standby *worker

	wg sync.WaitGroup // acceptor, handshakes, per-connection readers

	// In-flight kernel dispatches awaiting fResult frames, keyed by Seq.
	// Failing a pending entry (worker death, shutdown) sends nil.
	pmu     sync.Mutex
	pending map[uint64]*pendingTask
	nextSeq atomic.Uint64

	instr tcpInstr
}

// pendingTask is one dispatched kernel awaiting its result.
type pendingTask struct {
	place int
	ch    chan *kernel.Result // buffered(1): resolver never blocks
}

// worker is the coordinator's record of one remote place body.
type worker struct {
	place int
	fc    *frameConn // nil until the hello handshake
	kill  kill       // nil until the spawner has started the body
	// ready is closed once the body has both joined (fc) and a kill,
	// by whichever of admit and spawnWorker sets the second.
	ready  chan struct{}
	exited chan struct{} // closed once the body has been reaped, or its spawn failed
}

func newWorker(place int) *worker {
	return &worker{place: place, ready: make(chan struct{}), exited: make(chan struct{})}
}

// tcpInstr holds the backend's observability handles (nil-safe).
type tcpInstr struct {
	frames        *obs.Counter // transport.tcp.frames
	wireBytes     *obs.Counter // transport.tcp.wire_bytes (real footprint: prefix + frame)
	heartbeats    *obs.Counter // transport.tcp.heartbeats
	deaths        *obs.Counter // transport.tcp.deaths
	tasks         *obs.Counter // transport.tcp.tasks (kernel dispatches put on a wire)
	taskFailures  *obs.Counter // transport.tcp.task_failures (dispatches failed by death/shutdown)
	helloRejected *obs.Counter // transport.tcp.hello_rejected (unparseable or wrong-version hellos)
	killWriteErrs *obs.Counter // transport.tcp.kill_write_errors (best-effort fKill writes that failed)
	adopted       *obs.Counter // transport.tcp.standby.adopted (standbys Grow made places)
	spawned       *obs.Counter // transport.tcp.standby.spawned
	lost          *obs.Counter // transport.tcp.standby.lost (standbys that died or never joined)
}

// Option configures the backend.
type Option func(*Transport)

// WithHeartbeat sets the failure detector's beat interval and
// declare-dead timeout. Non-positive values keep the defaults
// (transport.DefaultHeartbeatInterval / transport.DefaultHeartbeatTimeout).
func WithHeartbeat(interval, timeout time.Duration) Option {
	return func(t *Transport) {
		t.interval = interval
		t.timeout = timeout
	}
}

// WithObs wires the backend's wire-level instrumentation into reg.
func WithObs(reg *obs.Registry) Option {
	return func(t *Transport) { t.reg = reg }
}

// New builds a multi-process backend. Nothing starts until
// transport.Transport.Start.
func New(opts ...Option) *Transport {
	t := &Transport{
		interval: transport.DefaultHeartbeatInterval,
		timeout:  transport.DefaultHeartbeatTimeout,
		workers:  make(map[int]*worker),
		pending:  make(map[uint64]*pendingTask),
		sp:       &procSpawner{},
	}
	for _, o := range opts {
		if o != nil {
			o(t)
		}
	}
	return t
}

// Name implements transport.Transport.
func (t *Transport) Name() string { return "tcp" }

// Start implements transport.Transport: ready the spawner, bring up one
// worker body per non-zero place, and start the failure detector.
func (t *Transport) Start(places int, h transport.Handler) error {
	t.mu.Lock()
	if t.started {
		t.mu.Unlock()
		return errors.New("tcp: Start called twice")
	}
	t.started = true
	t.places = places
	t.handler = h
	t.mu.Unlock()

	t.instr = tcpInstr{
		frames:        t.reg.Counter("transport.tcp.frames"),
		wireBytes:     t.reg.Counter("transport.tcp.wire_bytes"),
		heartbeats:    t.reg.Counter("transport.tcp.heartbeats"),
		deaths:        t.reg.Counter("transport.tcp.deaths"),
		tasks:         t.reg.Counter("transport.tcp.tasks"),
		taskFailures:  t.reg.Counter("transport.tcp.task_failures"),
		helloRejected: t.reg.Counter("transport.tcp.hello_rejected"),
		killWriteErrs: t.reg.Counter("transport.tcp.kill_write_errors"),
		adopted:       t.reg.Counter("transport.tcp.standby.adopted"),
		spawned:       t.reg.Counter("transport.tcp.standby.spawned"),
		lost:          t.reg.Counter("transport.tcp.standby.lost"),
	}

	// The detector exists before any body can join: admit reads its
	// timeout.
	t.detector = transport.NewDetector(t.interval, t.timeout, t.placeDead)
	if err := t.sp.listen(t); err != nil {
		return err
	}

	// Wait for every expected place to complete its HELLO handshake, so
	// the runtime never sees a place whose body is not yet reachable.
	if err := t.bringUp(1, places); err != nil {
		t.sp.close()
		return err
	}
	t.detector.Start()
	t.spawnStandby()
	return nil
}

// bringUp registers places lo..hi-1 as expected, spawns their bodies and
// waits, bounded by joinTimeout, until each has completed its hello
// handshake.
func (t *Transport) bringUp(lo, hi int) error {
	expected := make([]*worker, 0, hi-lo)
	t.mu.Lock()
	for p := lo; p < hi; p++ {
		w := newWorker(p)
		t.workers[p] = w
		expected = append(expected, w)
	}
	t.mu.Unlock()
	for _, w := range expected {
		if err := t.spawnWorker(w); err != nil {
			return err
		}
	}
	timeout := time.NewTimer(joinTimeout(hi - lo))
	defer timeout.Stop()
	for _, w := range expected {
		select {
		case <-w.ready:
		case <-timeout.C:
			return fmt.Errorf("tcp: timed out waiting for place %d to join", w.place)
		}
	}
	return nil
}

// joinTimeout bounds how long Start and Grow wait for worker handshakes:
// generous enough for process spawn under load, far from interactive
// annoyance when a worker binary is broken.
func joinTimeout(places int) time.Duration {
	d := 10*time.Second + time.Duration(places)*100*time.Millisecond
	return d
}

// spawnStandby starts, in the background, a standby body for the next
// place id, unless the backend is closed or a standby exists already.
func (t *Transport) spawnStandby() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.standby != nil {
		return
	}
	w := newWorker(t.places)
	t.standby = w
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		if err := t.spawnWorker(w); err != nil {
			t.dropStandby(w)
			close(w.exited) // wakes a Grow waiting to adopt w
			return
		}
		t.instr.spawned.Inc()
	}()
}

// dropStandby forgets w if it is still the standby: it was never a place,
// so its loss is counted (transport.tcp.standby.lost) and reported to no
// one. Its connection is cut and its body killed.
func (t *Transport) dropStandby(w *worker) {
	t.mu.Lock()
	if t.standby != w {
		t.mu.Unlock()
		return
	}
	t.standby = nil
	t.mu.Unlock()
	t.instr.lost.Inc()
	t.reg.Trace("tcp.standby.lost", int64(w.place), 0)
	t.destroy(w)
}

// destroy cuts w's connection and kills its body, whichever of the two
// exist yet. A kill set after this look is spawnWorker's to use: w is
// no longer a place or the standby.
func (t *Transport) destroy(w *worker) {
	t.mu.Lock()
	fc, kill := w.fc, w.kill
	t.mu.Unlock()
	if fc != nil {
		fc.close()
	}
	if kill != nil {
		kill()
	}
}

// spawnWorker has the spawner start the body of w's place. A body whose
// record was forgotten or dropped — or whose backend closed — while it
// started is killed at once. A standby that ends before adoption is
// dropped when it is reaped, before a Grow waiting to adopt it wakes.
func (t *Transport) spawnWorker(w *worker) error {
	kill, err := t.sp.spawn(t, w.place, func() {
		t.dropStandby(w)
		close(w.exited)
	})
	if err != nil {
		return err
	}
	t.mu.Lock()
	w.kill = kill
	joined := w.fc != nil
	orphan := t.closed || (t.workers[w.place] != w && t.standby != w)
	t.mu.Unlock()
	if joined {
		close(w.ready)
	}
	if orphan {
		kill()
	}
	return nil
}

// join hands one body's end of a connection to admit.
func (t *Transport) join(conn net.Conn) {
	t.wg.Add(1)
	go t.admit(conn)
}

// admit handshakes one inbound connection and, on success, registers the
// worker and starts its read loop.
func (t *Transport) admit(conn net.Conn) {
	defer t.wg.Done()
	fc := newFrameConn(conn, t.detector.Timeout())
	var hello frame
	_, err := fc.read(&hello)
	if err == io.EOF {
		fc.close() // connected and left without a word
		return
	}
	if err != nil || hello.Type != fHello || hello.Ver != wireVersion {
		// A peer speaking another stream format — a v2 hello does not even
		// parse — is turned away loudly rather than misdecoded later.
		t.instr.helloRejected.Inc()
		t.reg.Trace("tcp.hello_rejected", int64(hello.From), int64(hello.Ver))
		fc.close()
		return
	}
	p := int(hello.From)
	t.mu.Lock()
	w := t.workers[p]
	if sb := t.standby; w == nil && sb != nil && sb.place == p {
		w = sb
	}
	if t.closed || w == nil || w.fc != nil {
		// Not a place this run expects (never announced, or dead and
		// forgotten), or a duplicate claim for one that has a live body.
		t.mu.Unlock()
		fc.close()
		return
	}
	w.fc = fc
	joined := w.kill != nil
	if w != t.standby {
		t.detector.Watch(p) // a standby is watched from adoption on
	}
	t.mu.Unlock()
	if joined {
		close(w.ready)
	}
	t.wg.Add(1)
	go t.readLoop(w)
}

// body snapshots a place's worker handles under the lock: fc and kill
// are each assigned once (by admit and spawnWorker, both lock-holding),
// so a snapshot stays valid, but reading the fields without the lock
// would race those assignments.
func (t *Transport) body(place int) (fc *frameConn, kill kill) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w := t.workers[place]; w != nil {
		fc, kill = w.fc, w.kill
	}
	return fc, kill
}

// forget deletes a dead place's record, cutting its wire and killing its
// body (a stopped or wedged worker would otherwise outlive the run's
// interest in it). The record — frameConn buffers, kill — is
// garbage from here on; a late hello for the place is refused by admit.
// Idempotent.
func (t *Transport) forget(place int) {
	t.mu.Lock()
	w := t.workers[place]
	delete(t.workers, place)
	t.mu.Unlock()
	if w != nil {
		t.destroy(w)
	}
}

// readLoop drains one worker's frames: heartbeats feed the detector,
// connection errors are failure reports (see lost).
func (t *Transport) readLoop(w *worker) {
	defer t.wg.Done()
	for {
		var f frame
		n, err := w.fc.read(&f)
		if err != nil {
			t.lost(w)
			return
		}
		t.instr.frames.Inc()
		t.instr.wireBytes.Add(int64(n))
		switch f.Type {
		case fHeartbeat:
			t.instr.heartbeats.Inc()
			t.detector.Beat(w.place)
		case fResult:
			t.resolve(f.Seq, f.Result)
		default:
			// No other worker-originated traffic exists; read has
			// already rejected any type outside the protocol.
		}
	}
}

// resolve delivers a result to the pending kernel dispatch it answers.
// Unknown seqs only get their buffers back to the pool: the dispatch may
// already have been failed by a death racing the result.
func (t *Transport) resolve(seq uint64, res *kernel.Result) {
	t.pmu.Lock()
	p := t.pending[seq]
	delete(t.pending, seq)
	t.pmu.Unlock()
	if p != nil {
		p.ch <- res
	} else {
		res.Release()
	}
}

// failPending fails every in-flight kernel dispatch, or — when place is
// non-negative — only those targeting that place. Exec's waiters observe
// a nil result and surface a transport error, which the runtime answers
// by marking the place dead.
func (t *Transport) failPending(place int) {
	t.pmu.Lock()
	var victims []*pendingTask
	for seq, p := range t.pending {
		if place < 0 || p.place == place {
			victims = append(victims, p)
			delete(t.pending, seq)
		}
	}
	t.pmu.Unlock()
	for _, p := range victims {
		t.instr.taskFailures.Inc()
		p.ch <- nil
	}
}

// lost handles the broken connection of record w. A standby's is dropped
// without a report; a place body's is connLost. A record that is neither
// any more — a dead place already forgotten, a standby already dropped —
// was handled when it was forgotten, and its id may belong to a fresh
// body by now, so nothing is done in its name.
func (t *Transport) lost(w *worker) {
	t.mu.Lock()
	standby, current := t.standby == w, t.workers[w.place] == w
	t.mu.Unlock()
	switch {
	case standby:
		t.dropStandby(w)
	case current:
		t.connLost(w.place)
	}
}

// connLost handles a broken worker connection: faster than any heartbeat
// timeout, and deduped against it (and against administrative kills)
// through the detector's dead set.
func (t *Transport) connLost(place int) {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return
	}
	t.failPending(place)
	t.forget(place)
	if t.detector.MarkDead(place) {
		t.instr.deaths.Inc()
		if t.handler.PlaceDead != nil {
			t.handler.PlaceDead(place, transport.CauseConn)
		}
	}
}

// placeDead is the detector's timeout callback.
func (t *Transport) placeDead(place int, cause transport.DeathCause) {
	t.instr.deaths.Inc()
	t.failPending(place)
	t.forget(place)
	if t.handler.PlaceDead != nil {
		t.handler.PlaceDead(place, cause)
	}
}

// Send implements transport.Transport. It writes nothing: closure bodies
// run at the coordinator, so a logical hop between places has no bytes a
// worker could use, and bytes a worker keeps travel in kernel tasks
// (Exec). The hop is counted in apgas.net.* above Send, where kill
// fingerprints are also taken. Send only checks the contract: a non-nil
// payload is an error, and so is a closed transport or a hop whose
// non-coordinator endpoint has no live body.
func (t *Transport) Send(from, to int, class transport.Class, size int, payload []byte) (time.Duration, error) {
	if payload != nil {
		return 0, fmt.Errorf("tcp: Send with a %d-byte payload: bytes a worker keeps travel in kernel tasks", len(payload))
	}
	if from == to {
		return 0, nil
	}
	ep := to
	if ep == 0 {
		ep = from
	}
	t.mu.Lock()
	closed := t.closed
	var fc *frameConn
	if w := t.workers[ep]; w != nil {
		fc = w.fc
	}
	t.mu.Unlock()
	if closed {
		return 0, errors.New("tcp: transport closed")
	}
	if fc == nil || t.detector.Dead(ep) {
		return 0, fmt.Errorf("tcp: place %d has no live body", ep)
	}
	return 0, nil
}

// Exec implements transport.Executor: ship t to the worker process
// embodying t.Place as an fTask frame and block until its fResult (or
// the place's death) resolves it. Exec(nil) is the runtime's capability
// probe and succeeds without touching any wire.
func (t *Transport) Exec(task *kernel.Task) (*kernel.Result, error) {
	if task == nil {
		return nil, nil
	}
	place := int(task.Place)
	t.mu.Lock()
	closed := t.closed
	var fc *frameConn
	if w := t.workers[place]; w != nil {
		fc = w.fc
	}
	t.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("tcp: %w", transport.ErrClosed)
	}
	if place <= 0 || fc == nil || t.detector.Dead(place) {
		return nil, fmt.Errorf("tcp: dispatch to place %d: %w", place, transport.ErrNoBody)
	}
	seq := t.nextSeq.Add(1)
	p := &pendingTask{place: place, ch: make(chan *kernel.Result, 1)}
	// Register before writing: the result (or a death report) may land
	// before write even returns.
	t.pmu.Lock()
	t.pending[seq] = p
	t.pmu.Unlock()
	n, err := fc.write(&frame{Type: fTask, To: int32(place), Seq: seq, Task: task})
	if err != nil {
		t.pmu.Lock()
		delete(t.pending, seq)
		t.pmu.Unlock()
		t.connLost(place)
		return nil, fmt.Errorf("tcp: dispatch to place %d: %w", place, err)
	}
	t.instr.frames.Inc()
	t.instr.wireBytes.Add(int64(n))
	t.instr.tasks.Inc()
	res := <-p.ch
	if res == nil {
		return nil, fmt.Errorf("tcp: place %d died before returning kernel %q", place, task.Name)
	}
	return res, nil
}

// Kill implements transport.Transport: administratively fail-stop the
// worker body of a place the runtime has already marked dead. The
// detector is told first so neither the closing connection nor the
// stopping heartbeats produce a redundant death report.
func (t *Transport) Kill(place int) error {
	if place == 0 {
		return errors.New("tcp: cannot kill the coordinator (place 0)")
	}
	t.detector.MarkDead(place)
	t.failPending(place)
	if fc, _ := t.body(place); fc != nil {
		// Best effort: ask the worker to exit before forget cuts the wire
		// and kills the process. A failed ask still ends in SIGKILL, but
		// record it — a run whose kills all degrade to SIGKILL is telling
		// us something.
		if _, err := fc.write(&frame{Type: fKill, To: int32(place)}); err != nil {
			t.instr.killWriteErrs.Inc()
			t.reg.Trace("tcp.kill_write_error", int64(place), 0)
		}
	}
	t.forget(place)
	return nil
}

// KillWorkerProcess SIGKILLs the OS process embodying a place WITHOUT
// telling the detector — simulating a real crash that the heartbeat
// timeout or connection reset must discover. The chaos engine's crash
// verb, tests and the benchmark use it.
func (t *Transport) KillWorkerProcess(place int) error {
	_, kill := t.body(place)
	if kill == nil {
		return fmt.Errorf("tcp: place %d has no spawned worker process", place)
	}
	return kill()
}

// Grow implements transport.Transport: give n new places, numbered
// densely after the existing ones, a body each, and return once each has
// completed its hello handshake (bounded by joinTimeout) — a dispatch
// right after elastic replacement finds the worker there instead of
// racing its join, finding no body, and killing the new place. The first
// new place is the standby, adopted (see adopt); the rest, and the first
// too if the standby died, are spawned now. A new standby is started in the
// background before Grow returns.
func (t *Transport) Grow(n int) error {
	if n <= 0 {
		return nil
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errors.New("tcp: transport closed")
	}
	base := t.places
	t.places += n
	sb := t.standby
	t.mu.Unlock()
	lo := base
	if sb != nil && sb.place == base && t.adopt(sb) {
		lo++
	}
	err := t.bringUp(lo, base+n)
	t.spawnStandby()
	return err
}

// adopt makes the standby sb the body of its place, once it has completed
// its hello (bounded by joinTimeout): the record moves into workers and
// the detector starts watching it with a full window. A standby that died
// or never joined is dropped instead, and adopt reports false.
func (t *Transport) adopt(sb *worker) bool {
	timeout := time.NewTimer(joinTimeout(1))
	defer timeout.Stop()
	select {
	case <-sb.ready:
	case <-sb.exited:
	case <-timeout.C:
	}
	t.mu.Lock()
	ok := t.standby == sb && sb.fc != nil
	if ok {
		t.standby = nil
		t.workers[sb.place] = sb
		t.detector.Watch(sb.place)
	}
	t.mu.Unlock()
	if !ok {
		t.dropStandby(sb)
		return false
	}
	t.instr.adopted.Inc()
	t.reg.Trace("tcp.standby.adopted", int64(sb.place), 0)
	return true
}

// Close implements transport.Transport: stop detection, dismiss joined
// bodies, kill the ones that never joined, stop the spawner, and reap. A
// body that never joined is killed before the spawner stops listening,
// so none is left to dial a closed listener and log the refusal.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	type handles struct {
		place  int
		fc     *frameConn
		kill   kill
		exited chan struct{}
	}
	workers := make([]handles, 0, len(t.workers)+1)
	for _, w := range t.workers {
		workers = append(workers, handles{w.place, w.fc, w.kill, w.exited})
	}
	if sb := t.standby; sb != nil {
		workers = append(workers, handles{sb.place, sb.fc, sb.kill, sb.exited})
		t.standby = nil
	}
	t.mu.Unlock()
	if t.detector != nil {
		t.detector.Stop()
	}
	t.failPending(-1)
	for _, w := range workers {
		switch {
		case w.fc != nil:
			w.fc.write(&frame{Type: fBye, To: int32(w.place)})
			w.fc.close()
		case w.kill != nil:
			w.kill()
		}
	}
	t.sp.close()
	// Give the joined bodies two seconds in all to exit on fBye, then kill
	// the stragglers.
	grace, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, w := range workers {
		if w.fc == nil || w.kill == nil {
			continue
		}
		select {
		case <-w.exited:
		case <-grace.Done():
		}
		w.kill()
	}
	t.wg.Wait()
	return nil
}

// parseWorkerSpec decodes the RGML_TCP_WORKER value:
// "addr|place|intervalNs|timeoutNs".
func parseWorkerSpec(spec string) (addr string, place int, interval, timeout time.Duration, err error) {
	parts := strings.Split(spec, "|")
	if len(parts) != 4 {
		return "", 0, 0, 0, fmt.Errorf("tcp: malformed %s=%q", workerEnv, spec)
	}
	addr = parts[0]
	place, err = strconv.Atoi(parts[1])
	if err != nil || place <= 0 {
		return "", 0, 0, 0, fmt.Errorf("tcp: bad place in %s=%q", workerEnv, spec)
	}
	iv, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return "", 0, 0, 0, fmt.Errorf("tcp: bad interval in %s=%q", workerEnv, spec)
	}
	to, err := strconv.ParseInt(parts[3], 10, 64)
	if err != nil {
		return "", 0, 0, 0, fmt.Errorf("tcp: bad timeout in %s=%q", workerEnv, spec)
	}
	return addr, place, time.Duration(iv), time.Duration(to), nil
}
