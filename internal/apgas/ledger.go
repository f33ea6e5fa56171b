package apgas

import (
	"fmt"

	"github.com/rgml/rgml/internal/apgas/transport"
)

// The resilient-finish ledger.
//
// Resilient X10 (Cunningham et al., PPoPP 2014) implements failure-aware
// finish by recording every task fork and join at place zero. The paper
// reproduced here measures that design's cost directly: "The increasing
// cost of resilient X10 with number of places is due to communication with
// place 0 for activity bookkeeping, which has previously been identified as
// a scalability bottleneck for place-zero-based resilient finish."
//
// Two bookkeeping architectures hide behind Config.FinishMode:
//
//   - FinishCentral reproduces the measured design faithfully at emulation
//     scale: a single goroutine (logically at place zero) processes FORK /
//     JOIN / WAIT / PLACE-DIED events one at a time. Because the processing
//     is serialized, bookkeeping cost grows with the total number of
//     spawned tasks — which under weak scaling grows with the number of
//     places — and sits on the application's critical path at every finish
//     barrier, just as in the measured system.
//
//   - FinishSharded (shard.go) is the optimization the paper's discussion
//     points at: per-finish home-based bookkeeping (one shard goroutine
//     per place, state partitioned by finish id), an atomic-counter fast
//     path for tasks that never leave the finish's home place, and batched
//     event delivery. Concurrent finishes no longer serialize against each
//     other and bookkeeping hops are charged to each finish's home rather
//     than always to place zero.

// FinishMode selects the resilient-finish bookkeeping architecture.
type FinishMode int

const (
	// FinishCentral is the paper-faithful default: every fork and join of
	// every finish is an event processed serially by one ledger goroutine
	// at place zero (the measured scalability bottleneck of Figures 2-4).
	FinishCentral FinishMode = iota
	// FinishSharded bookkeeps each finish at its home place's ledger
	// shard, tracks home-place tasks with an atomic fast-path counter,
	// and coalesces fork bursts into batched shard messages.
	FinishSharded
)

// String implements fmt.Stringer.
func (m FinishMode) String() string {
	switch m {
	case FinishCentral:
		return "central"
	case FinishSharded:
		return "sharded"
	}
	return fmt.Sprintf("FinishMode(%d)", int(m))
}

// ParseFinishMode maps the flag spellings "central" and "sharded" to their
// FinishMode.
func ParseFinishMode(s string) (FinishMode, error) {
	switch s {
	case "central":
		return FinishCentral, nil
	case "sharded":
		return FinishSharded, nil
	}
	return 0, fmt.Errorf("apgas: unknown finish mode %q (want central or sharded)", s)
}

// DefaultLedgerQueue is the event-channel capacity used when
// Config.LedgerQueue is zero. A saturated channel blocks forks; the
// apgas.ledger.queue_full counter records every send that found the
// channel full.
const DefaultLedgerQueue = 4096

type ledgerEventKind uint8

const (
	evFork ledgerEventKind = iota
	evForkBatch
	evJoin
	evWait
	evPlaceDied
	evStop
)

// ledgerEvent is one bookkeeping message, shared by the central ledger and
// the per-place shards (which additionally use the batch kind and the wait
// reply channel).
type ledgerEvent struct {
	kind  ledgerEventKind
	task  *task
	tasks []*task // evForkBatch: a burst of forks from one activity
	fin   *Finish
	err   error
	from  Place
	dead  Place
	// reply is the per-round release channel of a sharded evWait; the
	// central ledger uses the finish's own release channel instead.
	reply chan struct{}
}

type ledger struct {
	rt *Runtime
	ch chan ledgerEvent
	// finDone is closed when the ledger goroutine exits.
	done chan struct{}

	// All state below is owned by the ledger goroutine; no locking needed.

	// liveByFinish tracks, per finish, the tasks forked but not yet joined.
	liveByFinish map[uint64]map[uint64]*task
	// liveByPlace indexes the same live tasks by the place they run at, so
	// a place death can terminate exactly its orphans.
	liveByPlace map[int]map[uint64]*task
	// waiting holds the finishes whose main activity has reached wait().
	waiting map[uint64]*Finish
	// deadPlaces remembers failures so late FORKs to a dead place fail fast.
	deadPlaces map[int]bool
	// live is the total number of live tasks, passed to the LedgerCost
	// congestion model.
	live int
}

func newLedger(rt *Runtime) *ledger {
	l := &ledger{
		rt:           rt,
		ch:           make(chan ledgerEvent, rt.cfg.ledgerQueue()),
		done:         make(chan struct{}),
		liveByFinish: make(map[uint64]map[uint64]*task),
		liveByPlace:  make(map[int]map[uint64]*task),
		waiting:      make(map[uint64]*Finish),
		deadPlaces:   make(map[int]bool),
	}
	go l.run()
	return l
}

// send delivers a bookkeeping event to the ledger, charging the network
// model for the hop to place zero.
func (l *ledger) send(ev ledgerEvent) {
	l.rt.hop(ev.from, Place{ID: 0}, transport.ClassControl, 0)
	l.post(ev)
}

// post enqueues without charging the network (failure detection and
// control events). A full channel is counted before blocking, so saturated
// bookkeeping shows up in apgas.ledger.queue_full instead of silently
// stalling forks.
func (l *ledger) post(ev ledgerEvent) {
	select {
	case l.ch <- ev:
	default:
		l.rt.instr.ledgerQueueFull.Inc()
		l.ch <- ev
	}
}

// placeDied notifies the ledger that p has failed (failure detection).
func (l *ledger) placeDied(p Place) {
	l.post(ledgerEvent{kind: evPlaceDied, dead: p, from: p})
}

func (l *ledger) stop() {
	l.post(ledgerEvent{kind: evStop})
	<-l.done
}

func (l *ledger) run() {
	defer close(l.done)
	for ev := range l.ch {
		if ev.kind == evStop {
			return
		}
		l.rt.stats.LedgerEvents.Add(1)
		l.rt.instr.ledgerEvents.Inc()
		if cost := l.rt.cfg.LedgerCost; cost != nil {
			cost(l.live)
		}
		switch ev.kind {
		case evFork:
			l.fork(ev.task)
		case evJoin:
			l.join(ev.task, ev.err)
		case evWait:
			l.waitReq(ev.fin)
		case evPlaceDied:
			l.died(ev.dead)
		}
	}
}

func (l *ledger) fork(t *task) {
	if l.deadPlaces[t.place.ID] || l.rt.placeState(t.place).isDead() {
		// The task will never run usefully; report it dead immediately.
		// Its eventual JOIN (the goroutine still executes and aborts on
		// first store access) is ignored because the task was never live.
		l.rt.noteRefusedFork(t.fin, t.place)
		t.fin.record(&DeadPlaceError{Place: t.place})
		return
	}
	byFin := l.liveByFinish[t.fin.id]
	if byFin == nil {
		byFin = make(map[uint64]*task)
		l.liveByFinish[t.fin.id] = byFin
	}
	byFin[t.id] = t
	byPlace := l.liveByPlace[t.place.ID]
	if byPlace == nil {
		byPlace = make(map[uint64]*task)
		l.liveByPlace[t.place.ID] = byPlace
	}
	byPlace[t.id] = t
	l.live++
}

func (l *ledger) join(t *task, err error) {
	byFin := l.liveByFinish[t.fin.id]
	if byFin == nil || byFin[t.id] == nil {
		// Already terminated by a place death (or the fork was refused);
		// the forced termination's DeadPlaceError stands.
		return
	}
	t.fin.record(err)
	l.remove(t)
	l.maybeRelease(t.fin)
}

// died terminates every live task at p with a DeadPlaceError and releases
// any finish that was only waiting on p's orphans.
func (l *ledger) died(p Place) {
	l.deadPlaces[p.ID] = true
	orphans := l.liveByPlace[p.ID]
	delete(l.liveByPlace, p.ID)
	for _, t := range orphans {
		l.live--
		t.fin.record(&DeadPlaceError{Place: p})
		if byFin := l.liveByFinish[t.fin.id]; byFin != nil {
			delete(byFin, t.id)
			if len(byFin) == 0 {
				delete(l.liveByFinish, t.fin.id)
			}
		}
		l.maybeRelease(t.fin)
	}
}

func (l *ledger) waitReq(f *Finish) {
	l.waiting[f.id] = f
	l.maybeRelease(f)
}

func (l *ledger) remove(t *task) {
	l.live--
	if byFin := l.liveByFinish[t.fin.id]; byFin != nil {
		delete(byFin, t.id)
		if len(byFin) == 0 {
			delete(l.liveByFinish, t.fin.id)
		}
	}
	if byPlace := l.liveByPlace[t.place.ID]; byPlace != nil {
		delete(byPlace, t.id)
		if len(byPlace) == 0 {
			delete(l.liveByPlace, t.place.ID)
		}
	}
}

// maybeRelease releases a waiting finish whose live-task set has drained.
func (l *ledger) maybeRelease(f *Finish) {
	if _, ok := l.waiting[f.id]; !ok {
		return
	}
	if len(l.liveByFinish[f.id]) > 0 {
		return
	}
	delete(l.waiting, f.id)
	close(f.release)
}
