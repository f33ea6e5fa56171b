package apgas

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/apgas/transport/local"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/par"
)

// Config parameterizes a Runtime.
type Config struct {
	// Places is the number of places to create, at least 1. Place IDs are
	// 0..Places-1.
	Places int
	// Resilient selects resilient finish semantics: task forks and joins
	// are recorded by the resilient-finish ledger, place failures are
	// detected, and affected finishes observe DeadPlaceError. Without it,
	// finishes are plain local barriers and failure injection is rejected
	// (matching non-resilient X10, where a crash takes the whole
	// application down).
	Resilient bool
	// FinishMode selects the shape of the one resilient-finish ledger:
	// FinishCentral (the default) is the paper-faithful place-zero ledger,
	// a single shard that sees every fork and join one event at a time;
	// FinishSharded bookkeeps each finish at its home place's shard with a
	// local fast path and batched event delivery (see ledger.go and
	// shard.go). Ignored unless Resilient is set.
	FinishMode FinishMode
	// LedgerCost is extra processing work performed by a ledger shard per
	// drain of its event queue, on top of the real map maintenance. It
	// receives the shard's current live-task count: resilient X10's
	// place-zero finish maintains per-finish, per-place transit state
	// whose upkeep grows with the amount of outstanding activity, which is
	// why the paper identifies place-zero bookkeeping as the scalability
	// bottleneck. In FinishCentral mode a drain is one event and the one
	// shard's count is the global one, so the cost is paid serially per
	// event; in FinishSharded mode each shard pays it once per gulp of up
	// to 256 events over its own tasks only, which is exactly how the
	// sharded design escapes the bottleneck.
	LedgerCost func(liveTasks int)
	// Obs, when non-nil, receives runtime instrumentation: task spawns,
	// place-crossing messages and bytes, ledger events, observed kills
	// and finish latencies. The same registry is typically shared with
	// the snapshot layer and the executor so one run exports as a single
	// document. Nil disables instrumentation at
	// the cost of one branch per event.
	Obs *obs.Registry
	// Store is the snapshot store's redundancy policy (replication factor
	// or erasure geometry); the snapshot layer reads it through
	// Runtime.StorePolicy so every snapshot of a run shares one policy.
	// The zero value leaves the store at its paper-faithful default
	// (replicate, k=2).
	Store StorePolicy
	// KernelWorkers, when positive, sets the size of the process-wide
	// intra-place kernel worker pool (internal/par) that the la kernels
	// and per-place block fans run on. Zero leaves the pool at its
	// current setting (default: RGML_WORKERS or runtime.NumCPU()). The
	// deterministic chunking contract makes kernel results bit-identical
	// at every worker count, so the knob only affects throughput.
	KernelWorkers int
	// Transport is the communication backend all place-crossing traffic
	// and liveness information flows through. Nil selects the default
	// in-process backend (transport/local), whose Send does nothing: its
	// places share one process, so the runtime's apgas.net.* counters are
	// the whole record of a message. A non-nil backend (transport/tcp)
	// owns place bodies: its failure detector feeds the same dead-place
	// broadcast path used by injected kills.
	Transport transport.Transport

	// Compress selects the checkpoint compression policy applied by the
	// dist layer when serializing snapshot payloads: none (the zero
	// value, bit-identical to the uncompressed codec), lossless, or
	// error-bounded lossy quantization with Compress.ErrorBound. Objects
	// opt in to lossy individually (AllowLossyCheckpoint); everything
	// else is transparently downgraded to lossless. Set via
	// WithCompression, read via Runtime.Compression.
	Compress codec.Spec

	// err carries the first validation failure recorded by a functional
	// option at apply time (see options.go); New surfaces it.
	err error
}

// Runtime is the emulated APGAS runtime: a fixed-at-startup (but elastically
// growable) set of places, a failure injector, and the finish machinery.
type Runtime struct {
	cfg Config

	mu     sync.RWMutex
	places []*place // indexed by place ID; never shrinks
	down   bool
	// growMu serializes AddPlaces, so the ids one call reserves are still
	// the next ones when it publishes them, without holding mu across the
	// transport's Grow.
	growMu sync.Mutex

	shards *shardedLedger // the resilient-finish ledger; non-nil iff cfg.Resilient

	// tp is the communication backend (never nil after New): the
	// in-process emulation by default, or a real multi-process transport.
	tp transport.Transport

	// injector, when set, is consulted at every instrumented fault point
	// (see inject.go); internal/chaos installs its engine here.
	injector faultInjectorRef

	nextHandle atomic.Uint64
	nextTask   atomic.Uint64
	nextFinish atomic.Uint64

	// kern is the registered-kernel dispatch state (see kerneldispatch.go);
	// kern.ex is non-nil iff the transport has a distributed data plane.
	kern kernDispatch

	instr rtInstr
}

// rtInstr holds the runtime's observability handles, resolved once at
// New so hot paths update them with single atomic operations. With
// no registry configured every handle is nil and each update is a no-op
// branch (see internal/obs), except the ten counters Stats reads, which
// are then standalone.
type rtInstr struct {
	tasks           *obs.Counter   // apgas.tasks.spawned
	messages        *obs.Counter   // apgas.net.messages
	bytes           *obs.Counter   // apgas.net.bytes
	ledgerEvents    *obs.Counter   // apgas.ledger.events
	ledgerQueueFull *obs.Counter   // apgas.ledger.queue_full
	ledgerLocal     *obs.Counter   // apgas.ledger.local_fast
	ledgerBatches   *obs.Counter   // apgas.ledger.batches
	refusedForks    *obs.Counter   // apgas.ledger.refused_forks
	kills           *obs.Counter   // apgas.kills.observed
	failures        *obs.Counter   // apgas.places.failed (transport-detected)
	placesAdded     *obs.Counter   // apgas.places.added
	livePlaces      *obs.Gauge     // apgas.places.live
	finishes        *obs.Histogram // apgas.finish.duration
	workerExec      *obs.Counter   // apgas.tasks.worker_executed (kernels run in a worker body)
	kernelLocal     *obs.Counter   // apgas.tasks.kernel_local (kernels run in-process: the place has no worker body)
	kernelPutBytes  *obs.Counter   // apgas.kernel.put_bytes (store bytes shipped to worker bodies by ExecKernel puts)
	kernelRekeyed   *obs.Counter   // apgas.kernel.rekeyed (worker-resident entries kept across a Remake)

	// Per-class transport accounting: apgas.transport.<class>.messages and
	// apgas.transport.<class>.bytes, indexed by transport.Class. The legacy
	// aggregate counters above keep their exact pre-seam meaning.
	classMsgs  [transport.NumClasses]*obs.Counter
	classBytes [transport.NumClasses]*obs.Counter
}

func newRTInstr(reg *obs.Registry) rtInstr {
	stat := func(name string) *obs.Counter {
		if reg == nil {
			return new(obs.Counter)
		}
		return reg.Counter(name)
	}
	in := rtInstr{
		tasks:           stat("apgas.tasks.spawned"),
		messages:        stat("apgas.net.messages"),
		bytes:           stat("apgas.net.bytes"),
		ledgerEvents:    stat("apgas.ledger.events"),
		ledgerQueueFull: reg.Counter("apgas.ledger.queue_full"),
		ledgerLocal:     stat("apgas.ledger.local_fast"),
		ledgerBatches:   reg.Counter("apgas.ledger.batches"),
		refusedForks:    stat("apgas.ledger.refused_forks"),
		kills:           stat("apgas.kills.observed"),
		failures:        stat("apgas.places.failed"),
		placesAdded:     stat("apgas.places.added"),
		livePlaces:      reg.Gauge("apgas.places.live"),
		finishes:        reg.Histogram("apgas.finish.duration"),
		workerExec:      stat("apgas.tasks.worker_executed"),
		kernelLocal:     reg.Counter("apgas.tasks.kernel_local"),
		kernelPutBytes:  reg.Counter("apgas.kernel.put_bytes"),
		kernelRekeyed:   reg.Counter("apgas.kernel.rekeyed"),
	}
	for c := 0; c < transport.NumClasses; c++ {
		name := transport.Class(c).String()
		in.classMsgs[c] = reg.Counter("apgas.transport." + name + ".messages")
		in.classBytes[c] = reg.Counter("apgas.transport." + name + ".bytes")
	}
	return in
}

// New creates an emulated APGAS runtime from functional options:
//
//	rt, err := apgas.New(apgas.WithPlaces(8), apgas.WithResilient(true))
//
// Unset options keep their zero defaults, except Places, which defaults
// to 1 (a runtime needs at least one place to exist).
func New(opts ...Option) (*Runtime, error) {
	cfg := Config{Places: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	if cfg.Places < 1 {
		return nil, fmt.Errorf("apgas: WithPlaces(%d): a runtime needs at least 1 place", cfg.Places)
	}
	rt := &Runtime{cfg: cfg, instr: newRTInstr(cfg.Obs)}
	rt.places = make([]*place, cfg.Places)
	for i := range rt.places {
		rt.places[i] = newPlace(i)
	}
	rt.instr.livePlaces.Set(int64(cfg.Places))
	if cfg.Resilient {
		rt.shards = newShardedLedger(rt)
	}
	rt.tp = cfg.Transport
	if rt.tp == nil {
		rt.tp = local.New()
	}
	if err := rt.tp.Start(cfg.Places, transport.Handler{PlaceDead: rt.transportDeath}); err != nil {
		if rt.shards != nil {
			rt.shards.stop()
		}
		return nil, fmt.Errorf("apgas: transport %q start: %w", rt.tp.Name(), err)
	}
	// Probe the backend's distributed-data-plane capability: Exec(nil) is
	// a pure capability check, answered (nil, nil) by a backend that
	// dispatches kernels into worker bodies and ErrNoDataPlane otherwise.
	var ex transport.Executor
	if cand, ok := rt.tp.(transport.Executor); ok {
		if _, err := cand.Exec(nil); err == nil {
			ex = cand
		}
	}
	rt.kern.init(ex)
	if cfg.KernelWorkers > 0 {
		par.SetWorkers(cfg.KernelWorkers)
	}
	if cfg.Obs != nil {
		par.SetObs(cfg.Obs)
		la.SetObs(cfg.Obs)
	}
	return rt, nil
}

// Obs returns the observability registry the runtime was configured with
// (nil when uninstrumented). The snapshot and executor layers pick it up
// from here so one registry covers a whole run.
func (rt *Runtime) Obs() *obs.Registry { return rt.cfg.Obs }

// Transport returns the runtime's communication backend.
func (rt *Runtime) Transport() transport.Transport { return rt.tp }

// TransportName returns the backend's identifier ("local", "tcp").
func (rt *Runtime) TransportName() string { return rt.tp.Name() }

// hop records one place-crossing message of the given class and declared
// size in the activity counters and moves it through the transport.
// Intra-place moves are free and uncounted, matching the emulation's cost
// model.
func (rt *Runtime) hop(from, to Place, class transport.Class, bytes int) {
	if from.ID == to.ID {
		return
	}
	rt.instr.messages.Inc()
	rt.instr.classMsgs[class].Inc()
	if bytes > 0 {
		rt.instr.bytes.Add(int64(bytes))
		rt.instr.classBytes[class].Add(int64(bytes))
	}
	// Send errors are not task-visible faults: a failed send to a dying
	// place is answered by the failure detector feeding transportDeath,
	// after which the dead-place machinery takes over.
	_, _ = rt.tp.Send(from.ID, to.ID, class, bytes, nil)
}

// noteRefusedFork accounts a fork refused because its target place was
// already dead: the spawn is answered with DeadPlaceError without ever
// becoming live. The trace-ring event records (finish id, place id).
func (rt *Runtime) noteRefusedFork(f *Finish, p Place) {
	rt.instr.refusedForks.Inc()
	rt.cfg.Obs.Trace("apgas.ledger.refused_fork", int64(f.id), int64(p.ID))
}

// Resilient reports whether the runtime uses resilient finish semantics.
func (rt *Runtime) Resilient() bool { return rt.cfg.Resilient }

// FinishMode returns the resilient-finish bookkeeping architecture the
// runtime was configured with (meaningful only when Resilient).
func (rt *Runtime) FinishMode() FinishMode { return rt.cfg.FinishMode }

// Compression returns the runtime-wide checkpoint compression policy
// (see Config.Compress). The dist layer resolves it per object at
// snapshot time.
func (rt *Runtime) Compression() codec.Spec { return rt.cfg.Compress }

// Shutdown stops the runtime. Outstanding finishes must have completed.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	if rt.down {
		rt.mu.Unlock()
		return
	}
	rt.down = true
	rt.mu.Unlock()
	if rt.shards != nil {
		rt.shards.stop()
	}
	if rt.tp != nil {
		rt.tp.Close()
	}
}

// NumPlaces returns the total number of places ever created (live or dead).
func (rt *Runtime) NumPlaces() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return len(rt.places)
}

// World returns the group of all currently live places, in ID order.
// At startup this is places 0..Places-1.
func (rt *Runtime) World() PlaceGroup {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	g := make(PlaceGroup, 0, len(rt.places))
	for _, pl := range rt.places {
		if !pl.isDead() {
			g = append(g, Place{ID: pl.id})
		}
	}
	return g
}

// Place returns the place with the given ID. It panics on an out-of-range
// ID; dead places are still returned (operations on them throw
// DeadPlaceError).
func (rt *Runtime) Place(id int) Place {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if id < 0 || id >= len(rt.places) {
		panic(fmt.Sprintf("apgas: no such place %d", id))
	}
	return Place{ID: id}
}

// IsDead reports whether place p has failed.
func (rt *Runtime) IsDead(p Place) bool {
	return rt.placeState(p).isDead()
}

// Live filters g down to its surviving members, preserving order.
func (rt *Runtime) Live(g PlaceGroup) PlaceGroup {
	out := make(PlaceGroup, 0, len(g))
	for _, p := range g {
		if !rt.IsDead(p) {
			out = append(out, p)
		}
	}
	return out
}

// placeState returns the internal state for p, panicking on bad IDs
// (a bad ID is a programming error, not a runtime failure).
func (rt *Runtime) placeState(p Place) *place {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if p.ID < 0 || p.ID >= len(rt.places) {
		panic(fmt.Sprintf("apgas: no such place %d", p.ID))
	}
	return rt.places[p.ID]
}

// AddPlaces elastically creates n new places and returns them. This is the
// "Elastic X10" capability (X10 2.5.1) that the paper's future-work
// Replace-Elastic restoration mode builds on. The transport's Grow — on
// tcp a join wait of up to seconds — runs outside the place-table lock,
// so liveness checks and the death path proceed meanwhile; concurrent
// calls are serialized and get consecutive ids.
func (rt *Runtime) AddPlaces(n int) (PlaceGroup, error) {
	if n < 0 {
		return nil, fmt.Errorf("apgas: AddPlaces(%d): negative count", n)
	}
	rt.growMu.Lock()
	defer rt.growMu.Unlock()
	rt.mu.RLock()
	down, base := rt.down, len(rt.places)
	rt.mu.RUnlock()
	if down {
		return nil, ErrShutdown
	}
	// The backend must have given the new places bodies before the
	// runtime advertises them (a tcp spawn can fail or time out).
	if err := rt.tp.Grow(n); err != nil {
		return nil, fmt.Errorf("apgas: AddPlaces(%d): transport %q: %w", n, rt.tp.Name(), err)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.down {
		return nil, ErrShutdown
	}
	added := make(PlaceGroup, 0, n)
	for id := base; id < base+n; id++ {
		rt.places = append(rt.places, newPlace(id))
		added = append(added, Place{ID: id})
	}
	rt.instr.placesAdded.Add(int64(n))
	rt.instr.livePlaces.Add(int64(n))
	rt.cfg.Obs.Trace("apgas.places.added", int64(n), int64(len(rt.places)))
	return added, nil
}

// Kill fail-stops place p: its store is dropped and the resilient-finish
// ledger terminates its orphaned tasks, delivering DeadPlaceError to their
// enclosing finishes. Place zero is immortal. Kill is rejected on a
// non-resilient runtime.
func (rt *Runtime) Kill(p Place) error {
	if !rt.cfg.Resilient {
		return ErrNotResilient
	}
	if p.ID == 0 {
		return ErrPlaceZeroImmortal
	}
	if !rt.die(rt.placeState(p), rt.instr.kills, "apgas.place.killed", 0) {
		return nil
	}
	// Destroy the place's external body last: the runtime has already
	// marked and broadcast the death, so kill-driven recovery is identical
	// across backends regardless of how fast the body actually dies. The
	// backend suppresses the redundant detector report.
	if err := rt.tp.Kill(p.ID); err != nil {
		return fmt.Errorf("apgas: transport %q kill place %d: %w", rt.tp.Name(), p.ID, err)
	}
	return nil
}

// transportDeath is the handler the transport's failure detector reports
// real place deaths through (heartbeat timeout, connection loss), and the
// path ExecKernel reports a failed dispatch through. Administrative kills
// never arrive here — Runtime.Kill marks the place dead before destroying
// its body and the backend suppresses the report — so anything that does
// arrive is an unexpected (real) failure.
func (rt *Runtime) transportDeath(id int, cause transport.DeathCause) {
	rt.mu.RLock()
	down := rt.down
	var pl *place
	if id >= 0 && id < len(rt.places) {
		pl = rt.places[id]
	}
	rt.mu.RUnlock()
	if down || pl == nil || id == 0 {
		// Place zero is the coordinator itself; its death is process death.
		return
	}
	rt.die(pl, rt.instr.failures, "apgas.place.failed", int64(cause))
}

// die is the one death body behind Kill and transportDeath: the place's
// store and worker mirror are dropped and the ledger terminates
// its orphaned tasks. ctr and event name the door. It reports whether
// this call made the transition, so racing doors count a death once.
func (rt *Runtime) die(pl *place, ctr *obs.Counter, event string, cause int64) bool {
	if !pl.kill() {
		return false
	}
	ctr.Inc()
	rt.instr.livePlaces.Add(-1)
	rt.kern.placeDead(pl.id)
	rt.cfg.Obs.Trace(event, int64(pl.id), cause)
	if rt.shards != nil {
		rt.shards.placeDied(Place{ID: pl.id})
	}
	return true
}

// Ctx is the execution context of a task: where it runs and which finish
// governs it. Task bodies receive a Ctx and must do all place-local data
// access through it (via PlaceLocalHandle / GlobalRef), which is what
// enforces place isolation in the emulation.
type Ctx struct {
	rt *Runtime
	// Here is the place the task is executing at.
	Here Place
	// fin is the dynamically enclosing finish, used by nested AsyncAt.
	fin *Finish
	// pending buffers this activity's not-yet-flushed forks for the
	// resilient-finish ledger (see Ctx.flushForks).
	pending []*task
}

// Runtime returns the runtime the task is executing on.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// Finish returns the dynamically enclosing finish of the task, which nested
// asyncs register with (X10 semantics: async registers with the innermost
// enclosing finish).
func (c *Ctx) Finish() *Finish { return c.fin }

// CheckAlive throws DeadPlaceError if the task's own place has died. Long
// compute loops call this at convenient points so that a task on a killed
// place aborts promptly instead of wasting work (real process failure would
// have stopped it instantly; cooperative abortion is the emulation's
// equivalent).
func (c *Ctx) CheckAlive() {
	c.rt.placeState(c.Here).checkAlive()
}

// Transfer counts one data-class message of the given declared size from
// the task's place to place to in apgas.net.*. GML collective operations
// call this around bulk data movement so the counters see realistic
// volumes; no payload is handed to the transport.
func (c *Ctx) Transfer(to Place, bytes int) {
	c.rt.hop(c.Here, to, transport.ClassData, bytes)
}

// TransferSnapshot counts checkpoint redundancy traffic — a replica or
// erasure shard written at save or by repair, or fetched by a restore —
// by its declared size. Like every Send it hands the transport no bytes,
// and the tcp backend writes none: the snapshot's entries live in the
// coordinator-side store, and a worker receives bytes only as the input
// of a kernel that reads them. The hop, class and byte count are what the
// apgas.net.* counters see, so they are invariant to the backend.
func (c *Ctx) TransferSnapshot(to Place, bytes int) {
	c.rt.hop(c.Here, to, transport.ClassSnapshot, bytes)
}

// At runs fn synchronously at place p, like X10's "at (p) S" executed from
// a task. The calling task blocks until fn returns. A DeadPlaceError is
// thrown (as a panic unwinding the calling task) if p is already dead or
// dies while fn runs; use Runtime.Finish to convert it into an error.
func (c *Ctx) At(p Place, fn func(ctx *Ctx)) {
	rt := c.rt
	pl := rt.placeState(p)
	rt.hop(c.Here, p, transport.ClassTask, 0)
	pl.checkAlive()
	sub := &Ctx{rt: rt, Here: p, fin: c.fin}
	// The sub-activity's buffered forks must reach the shard even if fn
	// unwinds with a DeadPlaceError (their tasks are already running).
	defer sub.flushForks()
	fn(sub)
	// The return leg belongs to the hop counted above; only the target's
	// liveness is checked again.
	pl.checkAlive()
}

// Eval runs fn at place p and copies its result back, like
// "val v = at (p) expr".
func Eval[T any](c *Ctx, p Place, fn func(ctx *Ctx) T) T {
	var out T
	c.At(p, func(ctx *Ctx) { out = fn(ctx) })
	return out
}

// root returns a Ctx representing the main activity, which X10 defines to
// run at place zero.
func (rt *Runtime) root() *Ctx {
	return &Ctx{rt: rt, Here: Place{ID: 0}}
}

// Finish runs body as the main activity of a new finish scope at place zero
// and blocks until the finish quiesces: body has returned and every task
// spawned inside it (transitively) has terminated. It returns the combined
// exceptions of the scope, with place failures surfacing as DeadPlaceError
// values (possibly inside a MultiError).
func (rt *Runtime) Finish(body func(ctx *Ctx)) error {
	return rt.finishFrom(rt.root(), body)
}

// FinishContext is Finish with cancellation: when ctx is canceled (or its
// deadline passes) before the finish quiesces, it stops waiting and
// returns an error wrapping ErrCanceled instead of hanging. The finish
// scope itself cannot be revoked — its tasks keep draining on background
// goroutines and their results are discarded — so cancellation is a way
// for the *caller* to give up on a wedged or slow scope, not a way to
// abort the emulated computation mid-flight. A nil or never-canceled
// context degenerates to plain Finish.
func (rt *Runtime) FinishContext(ctx context.Context, body func(c *Ctx)) error {
	if ctx == nil || ctx.Done() == nil {
		return rt.Finish(body)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Finish(body) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
	}
}

// FinishFrom is like Finish but runs body at an arbitrary place. It is the
// entry point used by nested finishes inside tasks.
func (c *Ctx) FinishFrom(body func(ctx *Ctx)) error {
	return c.rt.finishFrom(c, body)
}

func (rt *Runtime) finishFrom(parent *Ctx, body func(ctx *Ctx)) error {
	f := rt.newFinish(parent.Here)
	ctx := &Ctx{rt: rt, Here: parent.Here, fin: f}
	var t0 time.Time
	if rt.instr.finishes != nil {
		t0 = time.Now()
	}
	func() {
		defer func() {
			if err := recoverTaskError(recover()); err != nil {
				f.record(err)
			}
		}()
		body(ctx)
	}()
	// Flush the main activity's buffered forks before asking the ledger
	// for quiescence.
	ctx.flushForks()
	err := f.wait()
	if rt.instr.finishes != nil {
		rt.instr.finishes.Observe(time.Since(t0))
	}
	return err
}
