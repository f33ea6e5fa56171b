package apgas

import "fmt"

// The resilient-finish ledger: its modes and its events.
//
// Resilient X10 (Cunningham et al., PPoPP 2014) implements failure-aware
// finish by recording every task fork and join at place zero. The paper
// reproduced here measures that design's cost directly: "The increasing
// cost of resilient X10 with number of places is due to communication with
// place 0 for activity bookkeeping, which has previously been identified as
// a scalability bottleneck for place-zero-based resilient finish."
//
// One ledger implements both modes (shard.go): shard goroutines that each
// bookkeep the finishes assigned to them, fed FORK / JOIN / WAIT /
// PLACE-DIED events over a channel. Config.FinishMode only chooses the
// ledger's shape (ledgerShape):
//
//   - FinishCentral reproduces the measured design: one shard, at place
//     zero, bookkeeps every finish; each fork is its own event, enqueued
//     before its task starts; LedgerCost is charged per event over the
//     global live-task count; home-place tasks get no shortcut. Because
//     the processing is serialized, bookkeeping cost grows with the total
//     number of spawned tasks — which under weak scaling grows with the
//     number of places — and sits on the application's critical path at
//     every finish barrier, just as in the measured system.
//
//   - FinishSharded is the optimization the paper's discussion points at:
//     one shard per place, each finish bookkept at its home place's shard,
//     an atomic-counter fast path for tasks that never leave the finish's
//     home place, and batched event delivery. Concurrent finishes no
//     longer serialize against each other and bookkeeping hops are charged
//     to each finish's home rather than always to place zero.

// FinishMode selects the resilient-finish bookkeeping architecture.
type FinishMode int

const (
	// FinishCentral is the paper-faithful default: every fork and join of
	// every finish is an event processed serially by the one ledger shard
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

// forkBatchCap is the sharded fork batch size: an activity's burst of
// remote spawns is delivered to the home shard in messages of at most this
// many forks, each charged one NetModel hop.
const forkBatchCap = 32

// ledgerGulp bounds how many queued events one sharded drain processes
// under a single modeled protocol-cost charge.
const ledgerGulp = 256

// ledgerShape is the layout a FinishMode gives the one ledger.
type ledgerShape struct {
	// oneHome bookkeeps every finish at place zero's shard, whatever the
	// finish's home; otherwise each place has a shard for the finishes
	// homed there.
	oneHome bool
	// forkBatch is how many forks an activity buffers before it flushes
	// them to the shard as one event.
	forkBatch int
	// gulp bounds how many queued events a shard processes under one
	// LedgerCost charge.
	gulp int
	// localFast lets home-place tasks ride the finish's local counter
	// instead of the shard. Their liveness then bypasses the shard's
	// channel, so the waiter runs the spawn-counter fixpoint
	// (Finish.quiesce) instead of a single wait round.
	localFast bool
}

// shape returns the ledger layout of mode m.
func (m FinishMode) shape() ledgerShape {
	if m == FinishSharded {
		return ledgerShape{forkBatch: forkBatchCap, gulp: ledgerGulp, localFast: true}
	}
	return ledgerShape{oneHome: true, forkBatch: 1, gulp: 1}
}

// DefaultLedgerQueue is the event-channel capacity used when
// Config.LedgerQueue is zero. A saturated channel blocks forks; the
// apgas.ledger.queue_full counter records every send that found the
// channel full.
const DefaultLedgerQueue = 4096

type ledgerEventKind uint8

const (
	evForkBatch ledgerEventKind = iota
	evJoin
	evWait
	evPlaceDied
	evStop
)

// ledgerEvent is one bookkeeping message to a ledger shard.
type ledgerEvent struct {
	kind  ledgerEventKind
	task  *task   // evJoin; evForkBatch: a lone fork
	tasks []*task // evForkBatch: several forks buffered by one activity
	fin   *Finish
	err   error
	from  Place
	dead  Place
	// reply is the evWait round's release channel, closed once the
	// finish's registered set is empty.
	reply chan struct{}
}
