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
// Three implementations hide behind the one type, selected by
// Config.Resilient and Config.FinishMode:
//
//   - non-resilient: a plain local barrier (WaitGroup semantics). This is
//     the cheap mode whose per-iteration times form the lower curves in the
//     paper's Figures 2-4.
//
//   - resilient central: every task fork and join is an event processed
//     serially by the place-zero ledger, which detects place death,
//     terminates orphan tasks, and delivers DeadPlaceError to the affected
//     finishes. The bookkeeping traffic is the overhead measured in
//     Figures 2-4.
//
//   - resilient sharded: bookkeeping lives at the finish's home place's
//     ledger shard, home-place tasks ride a local counter that never
//     touches the shard, and remote forks are batched (see shard.go).
type Finish struct {
	rt   *Runtime
	id   uint64
	home Place

	mu   sync.Mutex
	errs []error

	// Non-resilient barrier.
	wg sync.WaitGroup

	// Resilient (central) release signal, closed by the ledger when the
	// finish is waiting and its last live task has joined.
	release chan struct{}

	// Sharded local fast path: home-place tasks are counted here instead
	// of being registered with the shard. localDone, when armed by the
	// waiter, is closed by the join that drains the population.
	localMu   sync.Mutex
	localLive int
	localDone chan struct{}
	// spawns counts every fork of the finish (local and remote), bumped
	// after the fork is visible to its barrier; the waiter's fixpoint loop
	// (waitSharded) uses it to detect spawns racing the barriers.
	spawns atomic.Uint64
	// remote is set (before the spawn counter bump) by the first
	// place-crossing fork. While it is unset after a local drain, the
	// finish provably has no shard state, so wait skips the shard
	// round-trip entirely — the common all-local finish costs zero ledger
	// traffic.
	remote atomic.Bool
}

func (rt *Runtime) newFinish(home Place) *Finish {
	f := &Finish{
		rt:   rt,
		id:   rt.nextFinish.Add(1),
		home: home,
	}
	if rt.cfg.Resilient && rt.cfg.FinishMode == FinishCentral {
		f.release = make(chan struct{})
	}
	return f
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
	switch {
	case !f.rt.cfg.Resilient:
		f.wg.Wait()
	case f.rt.cfg.FinishMode == FinishSharded:
		f.waitSharded()
	default:
		// Ask the ledger to release us once our live-task set drains. The
		// round trip through the serialized ledger is part of the resilient
		// finish cost.
		f.rt.ledger.send(ledgerEvent{kind: evWait, fin: f})
		<-f.release
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return combineErrors(f.errs)
}

// waitSharded is the sharded-mode quiescence fixpoint (see the protocol
// discussion in shard.go): drain the local fast-path population, then the
// shard's registered set, and accept only if no fork slipped in between.
//
// The all-local shortcut: every remote fork sets f.remote before its
// spawn-counter bump, and every fork made so far was made by the main
// activity (before wait) or by a local task (whose completion localDrain
// orders before the flag read). So an unset flag after the drain proves
// no remote fork ever happened, the shard holds no state for this
// finish, and the local fixpoint alone is quiescence.
func (f *Finish) waitSharded() {
	for {
		s := f.spawns.Load()
		f.localDrain()
		if !f.remote.Load() {
			if f.spawns.Load() == s {
				return
			}
			continue
		}
		reply := make(chan struct{})
		f.rt.shards.wait(f, reply)
		<-reply
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
	rt.stats.TasksSpawned.Add(1)
	rt.instr.tasks.Inc()
	// Spawn fault point: an installed injector may kill a place here (the
	// spawn itself then lands on a corpse and throws DeadPlaceError). Any
	// transient-fault return is ignored — spawns are not retryable.
	_ = rt.InjectFault(FaultPointSpawn, p)
	rt.hop(c.Here, p, transport.ClassTask, 0)

	if !rt.cfg.Resilient {
		// Non-resilient places never fail (Kill is rejected), so no
		// liveness bookkeeping is needed: just a local barrier.
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			runTask(rt, p, f, fn)
		}()
		return
	}

	if rt.cfg.FinishMode == FinishSharded {
		c.asyncSharded(p, f, fn)
		return
	}

	t := &task{id: rt.nextTask.Add(1), fin: f, place: p}
	// FORK is enqueued before the task starts, so the ledger always sees
	// FORK before the task's JOIN (the event channel is FIFO).
	rt.ledger.send(ledgerEvent{kind: evFork, task: t, from: c.Here})
	go func() {
		err := runTaskErr(rt, p, f, fn)
		rt.ledger.send(ledgerEvent{kind: evJoin, task: t, err: err, from: p})
	}()
}

// asyncSharded is the FinishSharded spawn path: home-place tasks ride the
// finish's local counter and never touch a shard; place-crossing tasks are
// buffered into the spawning activity's fork batch for the finish's home
// shard.
func (c *Ctx) asyncSharded(p Place, f *Finish, fn func(ctx *Ctx)) {
	rt := c.rt
	if p.ID == f.home.ID {
		if rt.placeState(p).isDead() {
			// Mirror the central ledger's refusal: report the dead target
			// immediately, but still run the goroutine (it aborts on its
			// first liveness check) and ignore its outcome.
			rt.noteRefusedFork(f, p)
			f.record(&DeadPlaceError{Place: p})
			go func() { _ = runTaskErr(rt, p, f, fn) }()
			return
		}
		f.localFork()
		f.spawns.Add(1)
		rt.stats.LocalTasks.Add(1)
		rt.instr.ledgerLocal.Inc()
		go func() {
			f.localJoin(runTaskErr(rt, p, f, fn))
		}()
		return
	}

	t := &task{id: rt.nextTask.Add(1), fin: f, place: p}
	f.remote.Store(true)
	c.pending = append(c.pending, t)
	if len(c.pending) >= forkBatchCap {
		c.flushForks()
	}
	f.spawns.Add(1)
	go func() {
		err := runTaskErr(rt, p, f, fn)
		rt.shards.join(t, err, p)
	}()
}

// flushForks delivers the activity's buffered remote forks to the finish's
// home shard as one batched message (one NetModel hop for the whole
// burst). Every activity flushes before its own join is sent — the
// ordering invariant the sharded release protocol relies on — and at the
// batch-size cap. A no-op outside sharded mode, where nothing is buffered.
func (c *Ctx) flushForks() {
	if len(c.pending) == 0 {
		return
	}
	ts := c.pending
	c.pending = nil
	c.rt.shards.forkBatch(c.fin, ts, c.Here)
}

// runTask executes fn at place p under panic-to-exception conversion and
// records any failure directly on the finish (non-resilient path).
func runTask(rt *Runtime, p Place, f *Finish, fn func(ctx *Ctx)) {
	if err := runTaskErr(rt, p, f, fn); err != nil {
		f.record(err)
	}
}

// runTaskErr executes fn at place p and returns its failure, if any. The
// task's buffered remote forks are flushed on every exit path, before the
// caller can send the task's own join.
func runTaskErr(rt *Runtime, p Place, f *Finish, fn func(ctx *Ctx)) (err error) {
	ctx := &Ctx{rt: rt, Here: p, fin: f}
	defer ctx.flushForks()
	defer func() {
		if e := recoverTaskError(recover()); e != nil {
			err = e
		}
	}()
	pl := rt.placeState(p)
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
