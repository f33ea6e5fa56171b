package apgas

import (
	"sync"
	"sync/atomic"

	"github.com/rgml/rgml/internal/apgas/transport"
)

// Finish is the synchronization scope created by Runtime.Finish. It collects
// the exceptions of the tasks spawned within it and blocks the creating
// activity until all of them (transitively) have terminated — X10's finish
// construct.
//
// Two implementations hide behind the one type, selected by
// Config.Resilient:
//
//   - non-resilient: a plain local barrier (WaitGroup semantics). This is
//     the cheap mode whose per-iteration times form the lower curves in the
//     paper's Figures 2-4.
//
//   - resilient: every task is bookkept by the resilient-finish ledger,
//     which detects place death, terminates orphan tasks, and delivers
//     DeadPlaceError to the affected finishes. Config.FinishMode picks the
//     ledger's shape (ledger.go): central, one shard at place zero that
//     sees every fork and join — the bookkeeping traffic measured in
//     Figures 2-4 — or sharded, a shard per home place with a local fast
//     path for home-place tasks and batched forks (see shard.go).
type Finish struct {
	rt   *Runtime
	id   uint64
	home Place

	mu   sync.Mutex
	errs []error

	// Non-resilient barrier.
	wg sync.WaitGroup

	// Sharded local fast path: home-place tasks are counted here instead
	// of being registered with the shard. localDone, when armed by the
	// waiter, is closed by the join that drains the population.
	localMu   sync.Mutex
	localLive int
	localDone chan struct{}
	// spawns counts every fork of the finish (local and remote), bumped
	// after the fork is visible to its barrier; the waiter's fixpoint loop
	// (quiesce) uses it to detect spawns racing the barriers. Only the
	// sharded shape keeps it.
	spawns atomic.Uint64
	// remote is set (before the spawn counter bump) by the first
	// fork that goes to the shard. While it is unset after a local drain,
	// the finish provably has no shard state, so wait skips the shard
	// round-trip entirely — the common all-local finish costs zero ledger
	// traffic. Only the sharded shape keeps it.
	remote atomic.Bool
}

func (rt *Runtime) newFinish(home Place) *Finish {
	return &Finish{
		rt:   rt,
		id:   rt.nextFinish.Add(1),
		home: home,
	}
}

// record appends an exception to the finish's collection.
func (f *Finish) record(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	f.errs = append(f.errs, err)
	f.mu.Unlock()
}

// wait blocks until the finish quiesces and returns its combined exceptions.
func (f *Finish) wait() error {
	if f.rt.cfg.Resilient {
		f.quiesce()
	} else {
		f.wg.Wait()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return combineErrors(f.errs)
}

// quiesce blocks until the resilient finish has quiesced. Without the
// local fast path every fork reached the shard before its task started,
// and a task's forks precede its own join on the shard's channel, so one
// wait round that finds the registered set empty is quiescence — and the
// round trip is part of the measured resilient finish cost, even for a
// finish that spawned nothing.
//
// With the fast path it is the fixpoint described in shard.go: drain the
// local population, then the shard's registered set, and accept only if
// no fork slipped in between. The all-local shortcut: every shard-bound
// fork sets f.remote before its spawn-counter bump, and every fork made
// so far was made by the main activity (before wait) or by a local task
// (whose completion localDrain orders before the flag read). So an unset
// flag after the drain proves no fork went to the shard, the shard holds
// no state for this finish, and the local fixpoint alone is quiescence.
func (f *Finish) quiesce() {
	l := f.rt.shards
	if !l.localFast {
		l.waitRound(f)
		return
	}
	for {
		s := f.spawns.Load()
		f.localDrain()
		if f.remote.Load() {
			l.waitRound(f)
		}
		if f.spawns.Load() == s {
			return
		}
	}
}

// localFork admits one home-place task to the finish's local barrier.
func (f *Finish) localFork() {
	f.localMu.Lock()
	f.localLive++
	f.localMu.Unlock()
}

// localJoin retires one home-place task, recording its outcome and waking
// the waiter if it drained the population.
func (f *Finish) localJoin(err error) {
	f.record(err)
	f.localMu.Lock()
	f.localLive--
	if f.localLive == 0 && f.localDone != nil {
		close(f.localDone)
		f.localDone = nil
	}
	f.localMu.Unlock()
}

// localDrain blocks until the finish's local fast-path population is zero.
// Only the finish's own main activity calls it.
func (f *Finish) localDrain() {
	f.localMu.Lock()
	if f.localLive == 0 {
		f.localMu.Unlock()
		return
	}
	done := make(chan struct{})
	f.localDone = done
	f.localMu.Unlock()
	<-done
}

// task identifies one spawned activity for the resilient ledger.
type task struct {
	id    uint64
	fin   *Finish
	place Place
}

// AsyncAt spawns fn as a new task at place p, registered with the task's
// dynamically enclosing finish (X10: "at (p) async S"). It returns
// immediately; the enclosing finish waits for the task.
func (c *Ctx) AsyncAt(p Place, fn func(ctx *Ctx)) {
	f := c.fin
	if f == nil {
		panic("apgas: AsyncAt outside a finish scope")
	}
	rt := c.rt
	rt.instr.tasks.Inc()
	// Spawn fault point: an installed injector may kill a place here (the
	// spawn itself then lands on a corpse and throws DeadPlaceError). Any
	// transient-fault return is ignored — spawns are not retryable.
	_ = rt.InjectFault(FaultPointSpawn, p)
	rt.hop(c.Here, p, transport.ClassTask, 0)
	pl := rt.placeState(p)

	if !rt.cfg.Resilient {
		// Non-resilient places never fail (Kill is rejected), so no
		// liveness bookkeeping is needed: just a local barrier.
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			runTask(rt, pl, f, fn)
		}()
		return
	}

	if pl.isDead() {
		// Refuse a spawn at a dead place here, before any path is chosen:
		// the task never becomes live, never runs, and never reaches the
		// ledger, so no join of it can race a fork.
		rt.noteRefusedFork(f, p)
		f.record(&DeadPlaceError{Place: p})
		return
	}
	l := rt.shards
	if l.localFast && p.ID == f.home.ID {
		f.localFork()
		f.spawns.Add(1)
		rt.instr.ledgerLocal.Inc()
		go func() {
			f.localJoin(runTaskErr(rt, pl, f, fn))
		}()
		return
	}

	t := &task{id: rt.nextTask.Add(1), fin: f, place: p}
	c.pending = append(c.pending, t)
	if len(c.pending) >= l.forkBatch {
		c.flushForks()
	}
	if l.localFast {
		// For the waiter's fixpoint: the flag before the count.
		f.remote.Store(true)
		f.spawns.Add(1)
	}
	go func() {
		err := runTaskErr(rt, pl, f, fn)
		rt.shards.join(t, err, p)
	}()
}

// flushForks delivers the activity's buffered forks to the finish's shard
// as one batched message (one hop counted in apgas.net.* for the whole
// burst). Every
// activity flushes before its own join is sent — the ordering invariant
// the release protocol relies on — and at the shape's batch size, which
// is one in central mode. A no-op when nothing is buffered, as on a
// non-resilient runtime.
func (c *Ctx) flushForks() {
	ev := ledgerEvent{kind: evForkBatch, fin: c.fin, from: c.Here}
	switch len(c.pending) {
	case 0:
		return
	case 1:
		// A lone fork (every fork in central mode) rides in the event and
		// the buffer is kept: a slice per fork measurably slows the
		// central fan-out.
		ev.task = c.pending[0]
		c.pending = c.pending[:0]
	default:
		ev.tasks = c.pending
		c.pending = nil
	}
	c.rt.shards.shardOf(c.fin).send(ev)
}

// runTask executes fn at place pl under panic-to-exception conversion and
// records any failure directly on the finish (non-resilient path).
func runTask(rt *Runtime, pl *place, f *Finish, fn func(ctx *Ctx)) {
	if err := runTaskErr(rt, pl, f, fn); err != nil {
		f.record(err)
	}
}

// runTaskErr executes fn at place pl and returns its failure, if any. The
// task's buffered remote forks are flushed on every exit path, before the
// caller can send the task's own join. The spawner looks pl up once, for
// its own dead-place check and for this one.
func runTaskErr(rt *Runtime, pl *place, f *Finish, fn func(ctx *Ctx)) (err error) {
	ctx := &Ctx{rt: rt, Here: Place{ID: pl.id}, fin: f}
	defer ctx.flushForks()
	defer func() {
		if e := recoverTaskError(recover()); e != nil {
			err = e
		}
	}()
	pl.checkAlive()
	fn(ctx)
	return nil
}

// taskError carries an application error thrown by Throw through the panic
// unwinding machinery.
type taskError struct{ err error }

// Throw aborts the current task with err; the enclosing finish collects it.
// It is the emulation's equivalent of throwing an exception in X10.
func Throw(err error) {
	if err == nil {
		return
	}
	panic(taskError{err: err})
}

// ForEachPlace runs fn concurrently at every place of g under a fresh
// finish, passing each place's index within the group. It is the workhorse
// collective of the GML layer ("execute on all places of the group").
func ForEachPlace(rt *Runtime, g PlaceGroup, fn func(ctx *Ctx, idx int)) error {
	return rt.Finish(func(ctx *Ctx) {
		for i, p := range g {
			i, p := i, p
			ctx.AsyncAt(p, func(c *Ctx) { fn(c, i) })
		}
	})
}
