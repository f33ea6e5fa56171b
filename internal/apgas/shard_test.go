package apgas

import (
	"errors"
	"strings"
	"testing"
)

// shardOrders returns every order of a remote task's fork batch (F), its
// join (J), its place's death (D) and its finish's wait round (W) in which
// the wait follows the fork: the spawning activity flushes its forks
// before it waits.
func shardOrders() []string {
	var out []string
	var perm func(prefix, rest string)
	perm = func(prefix, rest string) {
		if rest == "" {
			if strings.Index(prefix, "F") < strings.Index(prefix, "W") {
				out = append(out, prefix)
			}
			return
		}
		for i := range rest {
			perm(prefix+rest[i:i+1], rest[:i]+rest[i+1:])
		}
	}
	perm("", "FJDW")
	return out
}

// TestShardEventOrders drives one ledger shard, in each finish mode's
// shape, through every order of one remote task's events (shardOrders).
// The task's outcome must be recorded exactly once, and be a
// DeadPlaceError exactly when the death precedes the join (the fork is
// then refused if it comes between them); the wait round must be released
// exactly once, and only once the task is resolved; and the out-of-order
// maps must end empty.
func TestShardEventOrders(t *testing.T) {
	own := errors.New("the task's own outcome")
	for _, mode := range bothModes {
		for _, order := range shardOrders() {
			t.Run(mode.String()+"/"+order, func(t *testing.T) {
				rt := newModeRuntime(t, 3, mode)
				f := rt.newFinish(rt.Place(2))
				tk := &task{id: rt.nextTask.Add(1), fin: f, place: rt.Place(1)}
				// The shard is driven synchronously: its goroutine never runs.
				sh := newLedgerShard(rt, rt.shards.shardOf(f).home)
				reply := make(chan struct{})
				waited := false
				for _, ev := range order {
					switch ev {
					case 'F':
						sh.process(ledgerEvent{kind: evForkBatch, fin: f, task: tk})
					case 'J':
						sh.process(ledgerEvent{kind: evJoin, task: tk, err: own})
					case 'D':
						sh.process(ledgerEvent{kind: evPlaceDied, dead: tk.place})
					case 'W':
						sh.process(ledgerEvent{kind: evWait, fin: f, reply: reply})
						waited = true
					}
					released := false
					select {
					case <-reply:
						released = true
					default:
					}
					if resolved := len(f.errs) > 0; released != (waited && resolved) {
						t.Fatalf("after %c: released = %v, waited = %v, resolved = %v", ev, released, waited, resolved)
					}
				}
				if len(f.errs) != 1 {
					t.Fatalf("outcome recorded %d times (%v), want once", len(f.errs), f.errs)
				}
				d, j, fk := strings.IndexByte(order, 'D'), strings.IndexByte(order, 'J'), strings.IndexByte(order, 'F')
				if got, want := IsDeadPlace(f.errs[0]), d < j; got != want {
					t.Errorf("outcome %v: DeadPlaceError = %v, want %v", f.errs[0], got, want)
				}
				wantRefused := int64(0)
				if d < fk && fk < j {
					wantRefused = 1
				}
				if got := rt.Stats().RefusedForks; got != wantRefused {
					t.Errorf("RefusedForks = %d, want %d", got, wantRefused)
				}
				if len(sh.waiting) != 0 || len(sh.earlyJoins) != 0 || len(sh.doneTasks) != 0 ||
					len(sh.liveByFinish) != 0 || len(sh.liveByPlace) != 0 || sh.live != 0 {
					t.Errorf("shard state left over: waiting %v, earlyJoins %v, doneTasks %v, liveByFinish %v, liveByPlace %v, live %d",
						sh.waiting, sh.earlyJoins, sh.doneTasks, sh.liveByFinish, sh.liveByPlace, sh.live)
				}
			})
		}
	}
}
