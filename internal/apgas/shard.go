package apgas

import (
	"sync"

	"github.com/rgml/rgml/internal/apgas/transport"
)

// The ledger's machinery: shards, each a goroutine that bookkeeps the
// finishes assigned to it. Both finish modes run it; ledgerShape
// (ledger.go) sets how many shards there are and how events reach them.
//
// FinishCentral is the shape with one shard, at place zero, a fork batch
// of one and a gulp of one: every fork is enqueued before its task starts,
// so the shard always sees a task's FORK before its JOIN and a parent's
// forks before the parent's join, and one wait round decides quiescence.
//
// FinishSharded is the decentralization the paper's place-zero discussion
// motivates (and what HPX-style task-local resilience and GASPI-style
// decentralized failure notification implement in real systems):
//
//   - One shard per place, each finish bookkept at its home place's shard.
//     Concurrent finishes with different homes no longer serialize
//     against each other; each shard applies the LedgerCost congestion
//     model to its own live-task population only.
//   - Bookkeeping hops are charged from the event's origin to the
//     finish's home, not always to place zero. A finish whose activities
//     all run at its home pays no simulated network at all.
//   - Local fast path: tasks spawned at the finish's own home place are
//     tracked by a counter on the Finish itself (finish.go) and never
//     become shard events — the classic X10/HPX optimization where only
//     place-crossing activities pay resilient bookkeeping.
//   - Batched delivery: an activity's burst of remote forks is coalesced
//     into one shard message (Ctx.flushForks), charging the NetModel once
//     per batch, and the shard drains bursts from its channel in gulps,
//     charging the modeled per-message protocol cost once per gulp.
//
// # Ordering and the early-join window
//
// Sender-side fork batching means a task can start — and even join — before
// its buffered FORK reaches the shard. The protocol stays correct through
// two invariants:
//
//  1. Flush-before-join: every activity flushes its pending fork batch
//     before its own JOIN is sent (runTaskErr / At / finishFrom), and a
//     channel send that happens-before another is dequeued first. So a
//     remote task's children are always registered before its own join is
//     processed: the registered set cannot transiently drain while a
//     registered task has unflushed children.
//  2. Early joins: a JOIN for a not-yet-registered task is parked in
//     earlyJoins; when its FORK arrives the parked outcome is recorded and
//     the task never becomes live. If the shard already knows the task's
//     place is dead when the early JOIN arrives, it parks a DeadPlaceError
//     instead of the task's own outcome: with the FORK first, the death
//     would have terminated the task as an orphan. Refused forks and
//     force-terminated orphans leave a tombstone in doneTasks so their
//     eventual JOIN is ignored. Both maps are bounded: every task resolves
//     each entry it creates.
//
// # Quiescence
//
// A shard releases a wait round when the finish's registered set is
// empty. With the local fast path that alone is not quiescence: home-place
// tasks bypass the shard entirely (their liveness is the finish's local
// counter, not channel events), so "registered set empty" and "local
// counter zero" are two barriers observed at different times, and a local
// task can flush a batch of remote forks that the shard has not yet
// processed when the local counter hits zero. Finish.quiesce therefore
// runs a fixpoint loop:
//
//	for {
//	  s := spawns.Load()       // every spawn bumps this counter, last
//	  localDrain()             // 1. local fast-path population is zero
//	  shard wait; <-reply      // 2. then the registered set drained
//	  if spawns.Load() == s    // 3. and nothing spawned in between
//	    return
//	}
//
// If no spawn happened across both barriers, every task of the finish was
// spawned before the round began, and an induction over the spawn ancestry
// (grounded at the main activity, which flushed before waiting) shows each
// one was either visible to the local barrier or registered at the shard
// before the set drained. A spawn that slips between the barriers —
// a remote task forking at home, or a local task flushing remote children —
// bumps the counter and the loop simply runs another round; finishes
// quiesce, so the loop terminates.
//
// # Shard state vs place death
//
// Shards are bookkeeping infrastructure, not place-resident data: a shard
// keeps running when its place dies, and place death is *broadcast* to all
// shards, each terminating the registered orphans it tracks. (In a real
// home-based protocol the home's finish state must itself be replicated or
// adopted — the reason resilient X10 chose immortal place zero; the
// emulation models the cost distribution of the optimized protocol.)
// Home-place tasks of a finish whose home died are not force-terminated by
// the shard: they abort cooperatively (checkAlive) and drain the local
// counter themselves, which the emulation's task bodies always do.

// shardedLedger routes bookkeeping to the shard of each finish.
type shardedLedger struct {
	rt *Runtime
	ledgerShape

	mu     sync.RWMutex
	shards []*ledgerShard // indexed by home place ID; grows lazily
}

func newShardedLedger(rt *Runtime) *shardedLedger {
	s := &shardedLedger{rt: rt, ledgerShape: rt.cfg.FinishMode.shape()}
	n := rt.cfg.Places
	if s.oneHome {
		n = 1
	}
	s.shards = make([]*ledgerShard, n)
	for i := range s.shards {
		s.shards[i] = s.start(i)
	}
	return s
}

// start creates the shard of place home and its goroutine.
func (s *shardedLedger) start(home int) *ledgerShard {
	sh := newLedgerShard(s.rt, home)
	go sh.run(s.gulp)
	return sh
}

// shardOf returns the shard bookkeeping f, creating shards for elastically
// added places on first use.
func (s *shardedLedger) shardOf(f *Finish) *ledgerShard {
	if s.oneHome {
		// One shard, never added to: read without the lock, which every
		// central fork, join and wait would otherwise take.
		return s.shards[0]
	}
	home := f.home.ID
	s.mu.RLock()
	if home < len(s.shards) {
		sh := s.shards[home]
		s.mu.RUnlock()
		return sh
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.shards) <= home {
		s.shards = append(s.shards, s.start(len(s.shards)))
	}
	return s.shards[home]
}

// join reports a task's termination to its finish's shard.
func (s *shardedLedger) join(t *task, err error, from Place) {
	s.shardOf(t.fin).send(ledgerEvent{kind: evJoin, task: t, err: err, from: from})
}

// waitRound blocks until f's shard finds f's registered set empty. The
// waiter runs at f.home, so the hop is free unless the shard is elsewhere.
func (s *shardedLedger) waitRound(f *Finish) {
	reply := make(chan struct{})
	s.shardOf(f).send(ledgerEvent{kind: evWait, fin: f, reply: reply, from: f.home})
	<-reply
}

// placeDied broadcasts a failure to every shard; each terminates the
// registered orphans it tracks at p.
func (s *shardedLedger) placeDied(p Place) {
	for _, sh := range s.snapshot() {
		sh.post(ledgerEvent{kind: evPlaceDied, dead: p, from: p})
	}
}

func (s *shardedLedger) stop() {
	shards := s.snapshot()
	for _, sh := range shards {
		sh.post(ledgerEvent{kind: evStop})
	}
	for _, sh := range shards {
		<-sh.done
	}
}

func (s *shardedLedger) snapshot() []*ledgerShard {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*ledgerShard(nil), s.shards...)
}

// ledgerShard bookkeeps the finishes assigned to one shard. Its
// transitions (process) read and write only its own state.
type ledgerShard struct {
	rt   *Runtime
	home int
	ch   chan ledgerEvent
	done chan struct{}

	// All state below is owned by the shard goroutine.

	// liveByFinish tracks, per finish, the tasks forked but not yet joined.
	liveByFinish map[uint64]map[uint64]*task
	// liveByPlace indexes the same live tasks by the place they run at, so
	// a place death can terminate exactly its orphans.
	liveByPlace map[int]map[uint64]*task
	// waiting maps a finish id to the reply channel of its pending wait
	// round, closed when the finish's registered set drains.
	waiting map[uint64]chan struct{}
	// deadPlaces remembers failures so later forks to a dead place are
	// refused and early joins from one report its death.
	deadPlaces map[int]bool
	// earlyJoins parks outcomes of tasks whose JOIN overtook their batched
	// FORK; consumed when the fork arrives.
	earlyJoins map[uint64]error
	// doneTasks tombstones tasks whose fork was refused or that a place
	// death force-terminated, so their eventual JOIN is ignored.
	doneTasks map[uint64]struct{}
	// live is the shard's live-task count, passed to the LedgerCost
	// congestion model.
	live int
}

// newLedgerShard creates the shard of place home; its goroutine is
// started by the caller (shardedLedger.start).
func newLedgerShard(rt *Runtime, home int) *ledgerShard {
	sh := &ledgerShard{
		rt:           rt,
		home:         home,
		ch:           make(chan ledgerEvent, ledgerQueueCap),
		done:         make(chan struct{}),
		liveByFinish: make(map[uint64]map[uint64]*task),
		liveByPlace:  make(map[int]map[uint64]*task),
		waiting:      make(map[uint64]chan struct{}),
		deadPlaces:   make(map[int]bool),
		earlyJoins:   make(map[uint64]error),
		doneTasks:    make(map[uint64]struct{}),
	}
	// A shard created after a failure (elastic growth) must still refuse
	// forks to the places already known dead. Kill marks the place dead
	// before notifying the ledger, so seeding from place state can only
	// learn of a death early, never miss one.
	for i := 0; i < rt.NumPlaces(); i++ {
		if rt.IsDead(Place{ID: i}) {
			sh.deadPlaces[i] = true
		}
	}
	return sh
}

// send charges the network model for the hop to the shard's home place and
// enqueues the event, counting (then waiting out) a saturated queue.
func (sh *ledgerShard) send(ev ledgerEvent) {
	sh.rt.hop(ev.from, Place{ID: sh.home}, transport.ClassControl, 0)
	sh.post(ev)
}

// post enqueues without charging the network (failure detection and
// control events). A full channel is counted before blocking, so saturated
// bookkeeping shows up in apgas.ledger.queue_full instead of silently
// stalling forks.
func (sh *ledgerShard) post(ev ledgerEvent) {
	select {
	case sh.ch <- ev:
	default:
		sh.rt.instr.ledgerQueueFull.Inc()
		sh.ch <- ev
	}
}

// run drains the shard's channel in gulps: each blocking receive pulls
// whatever burst is immediately behind it (up to gulp events) and the
// modeled protocol cost is charged once for the gulp — the amortization a
// batching protocol buys, or the per-event cost with a gulp of one — while
// the real map upkeep still happens per event.
func (sh *ledgerShard) run(gulp int) {
	defer close(sh.done)
	batch := make([]ledgerEvent, 0, gulp)
	for {
		batch = append(batch[:0], <-sh.ch)
	drain:
		for len(batch) < gulp {
			select {
			case next := <-sh.ch:
				batch = append(batch, next)
			default:
				break drain
			}
		}
		if cost := sh.rt.cfg.LedgerCost; cost != nil {
			cost(sh.live)
		}
		sh.rt.instr.ledgerBatches.Inc()
		for _, ev := range batch {
			if ev.kind == evStop {
				return
			}
			sh.process(ev)
		}
	}
}

func (sh *ledgerShard) process(ev ledgerEvent) {
	switch ev.kind {
	case evForkBatch:
		ts := ev.tasks
		if ev.task != nil {
			ts = []*task{ev.task}
		}
		sh.countEvents(int64(len(ts)))
		for _, t := range ts {
			sh.fork(t)
		}
	case evJoin:
		sh.countEvents(1)
		sh.join(ev.task, ev.err)
	case evWait:
		sh.countEvents(1)
		sh.waiting[ev.fin.id] = ev.reply
		sh.tryRelease(ev.fin.id)
	case evPlaceDied:
		sh.countEvents(1)
		sh.died(ev.dead)
	}
}

func (sh *ledgerShard) countEvents(n int64) {
	sh.rt.instr.ledgerEvents.Add(n)
}

func (sh *ledgerShard) fork(t *task) {
	if err, early := sh.earlyJoins[t.id]; early {
		// The task already ran to completion before its batched fork
		// arrived; its parked outcome stands and it is never live.
		delete(sh.earlyJoins, t.id)
		t.fin.record(err)
		return
	}
	if sh.deadPlaces[t.place.ID] {
		// The place died after the spawn's own check (AsyncAt) but before
		// this fork: refuse it; the task's eventual JOIN is ignored.
		sh.rt.noteRefusedFork(t.fin, t.place)
		t.fin.record(&DeadPlaceError{Place: t.place})
		sh.doneTasks[t.id] = struct{}{}
		return
	}
	byFin := sh.liveByFinish[t.fin.id]
	if byFin == nil {
		byFin = make(map[uint64]*task)
		sh.liveByFinish[t.fin.id] = byFin
	}
	byFin[t.id] = t
	byPlace := sh.liveByPlace[t.place.ID]
	if byPlace == nil {
		byPlace = make(map[uint64]*task)
		sh.liveByPlace[t.place.ID] = byPlace
	}
	byPlace[t.id] = t
	sh.live++
}

func (sh *ledgerShard) join(t *task, err error) {
	if _, tomb := sh.doneTasks[t.id]; tomb {
		// Refused fork or force-terminated orphan: the DeadPlaceError
		// recorded then stands; this join is the tombstone's resolution.
		delete(sh.doneTasks, t.id)
		return
	}
	byFin := sh.liveByFinish[t.fin.id]
	if byFin == nil || byFin[t.id] == nil {
		// The batched fork is still in flight behind us; park the
		// outcome. A death already seen here would have terminated the
		// task had its fork come first, so the death is the outcome.
		if sh.deadPlaces[t.place.ID] {
			err = &DeadPlaceError{Place: t.place}
		}
		sh.earlyJoins[t.id] = err
		return
	}
	t.fin.record(err)
	sh.remove(t)
	sh.tryRelease(t.fin.id)
}

// died terminates every registered task at p with a DeadPlaceError and
// releases any wait round that was only blocked on p's orphans.
func (sh *ledgerShard) died(p Place) {
	sh.deadPlaces[p.ID] = true
	orphans := sh.liveByPlace[p.ID]
	delete(sh.liveByPlace, p.ID)
	for _, t := range orphans {
		t.fin.record(&DeadPlaceError{Place: p})
		sh.doneTasks[t.id] = struct{}{}
		sh.remove(t)
		sh.tryRelease(t.fin.id)
	}
}

func (sh *ledgerShard) remove(t *task) {
	sh.live--
	if byFin := sh.liveByFinish[t.fin.id]; byFin != nil {
		delete(byFin, t.id)
		if len(byFin) == 0 {
			delete(sh.liveByFinish, t.fin.id)
		}
	}
	if byPlace := sh.liveByPlace[t.place.ID]; byPlace != nil {
		delete(byPlace, t.id)
		if len(byPlace) == 0 {
			delete(sh.liveByPlace, t.place.ID)
		}
	}
}

// tryRelease answers a pending wait round once the finish's registered set
// has drained. The flush-before-join invariant guarantees the set is never
// transiently empty while a registered task has unflushed children; the
// waiter's fixpoint loop (Finish.quiesce) covers home-place tasks and
// spawns that race the barriers.
func (sh *ledgerShard) tryRelease(fin uint64) {
	reply, ok := sh.waiting[fin]
	if !ok {
		return
	}
	if len(sh.liveByFinish[fin]) > 0 {
		return
	}
	delete(sh.waiting, fin)
	close(reply)
}
