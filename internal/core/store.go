package core

import (
	"errors"
	"fmt"
	"sync"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/snapshot"
)

// AppResilientStore creates consistent application-level checkpoints out of
// per-object Snapshots (paper Listing 4). A checkpoint is atomic: the
// snapshots taken between StartNewSnapshot and Commit only become the
// application's recovery point when Commit succeeds; a failure in between
// is discarded by CancelSnapshot and the previous checkpoint remains valid.
// Coordinated checkpointing needs only one live checkpoint, so Commit
// destroys the storage of the superseded one (except snapshots shared via
// SaveReadOnly).
type AppResilientStore struct {
	mu sync.Mutex

	// committed is the application's current recovery point.
	committed map[snapshot.Snapshottable]*snapshot.Snapshot
	// committedIter is the iteration the committed checkpoint captured.
	committedIter int64

	// pending accumulates the snapshot under construction.
	pending     map[snapshot.Snapshottable]*snapshot.Snapshot
	pendingIter int64
	inProgress  bool

	// readOnly caches SaveReadOnly snapshots for reuse across checkpoints
	// ("if there is an existing snapshot for a read-only object,
	// saveReadOnly will reuse this snapshot"). A cached snapshot is taken
	// once per run: after a failure, Repair heals it onto the places that
	// took over instead of re-taking it.
	readOnly map[snapshot.Snapshottable]*snapshot.Snapshot

	// group is the application's current place group, which Repair heals
	// committed snapshots toward (see snapshot.Snapshot.Repair). The
	// executor sets it before every restore; nil, as in a stand-alone
	// store, repairs in place.
	group apgas.PlaceGroup

	// Observability handles (nil-safe; see instrument).
	saves    *obs.Counter // core.store.saves
	roReuses *obs.Counter // core.store.readonly_reuses
	commits  *obs.Counter // core.store.commits
	cancels  *obs.Counter // core.store.cancels
	repairs  *obs.Counter // core.store.repairs (entries healed by commit- and restore-time repair)

	// commitHook, when set, runs at the start of every Commit, after the
	// pending checkpoint's objects have all been saved but before the
	// checkpoint is promoted to the recovery point. The executor points it
	// at the chaos engine's commit fault point, which is how schedules kill
	// places inside the commit window; an error from it fails the Commit.
	commitHook func() error
}

// instrument wires the store's counters into reg. The executor calls it
// for the store it owns; stand-alone stores stay uninstrumented.
func (s *AppResilientStore) instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saves = reg.Counter("core.store.saves")
	s.roReuses = reg.Counter("core.store.readonly_reuses")
	s.commits = reg.Counter("core.store.commits")
	s.cancels = reg.Counter("core.store.cancels")
	s.repairs = reg.Counter("core.store.repairs")
}

// setCommitHook installs the function Commit runs at its entry (see the
// commitHook field). The executor owns this; nil clears it.
func (s *AppResilientStore) setCommitHook(fn func() error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitHook = fn
}

// setGroup records the application's place group that Repair heals
// toward (see the group field). The executor owns this.
func (s *AppResilientStore) setGroup(g apgas.PlaceGroup) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.group = g.Clone()
}

// NewAppResilientStore returns an empty store.
func NewAppResilientStore() *AppResilientStore {
	return &AppResilientStore{
		readOnly: make(map[snapshot.Snapshottable]*snapshot.Snapshot),
	}
}

// SetIteration records the application iteration the next checkpoint will
// capture. The executor calls it before invoking the application's
// Checkpoint method.
func (s *AppResilientStore) SetIteration(iter int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pendingIter = iter
}

// SnapshotIter returns the iteration of the committed checkpoint.
func (s *AppResilientStore) SnapshotIter() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committedIter
}

// StartNewSnapshot begins a new application checkpoint.
func (s *AppResilientStore) StartNewSnapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inProgress {
		return ErrSnapshotInProgress
	}
	s.inProgress = true
	s.pending = make(map[snapshot.Snapshottable]*snapshot.Snapshot)
	return nil
}

// Save captures obj's state into the pending checkpoint. The snapshot is
// taken outside the store's lock (it is a distributed operation), so a
// concurrent Commit or CancelSnapshot can end the checkpoint window while
// the snapshot is in flight; Save then destroys the orphaned snapshot and
// reports ErrNoSnapshotStarted instead of writing into a closed window.
func (s *AppResilientStore) Save(obj snapshot.Snapshottable) error {
	s.mu.Lock()
	if !s.inProgress {
		s.mu.Unlock()
		return ErrNoSnapshotStarted
	}
	s.mu.Unlock()
	snap, err := obj.MakeSnapshot()
	if err != nil {
		return fmt.Errorf("core: saving object: %w", err)
	}
	s.mu.Lock()
	if !s.inProgress {
		// The window closed while the snapshot was being taken (e.g. the
		// executor cancelled the checkpoint after a failure). The pending
		// map is gone; destroy the snapshot we can no longer hand over.
		s.mu.Unlock()
		snap.Destroy()
		return ErrNoSnapshotStarted
	}
	s.pending[obj] = snap
	s.saves.Inc()
	s.mu.Unlock()
	return nil
}

// SaveReadOnly captures obj's state once and reuses the same snapshot in
// every later checkpoint, avoiding repeated serialization of inputs that
// never change (the optimization behind Table III's flat checkpoint
// times).
func (s *AppResilientStore) SaveReadOnly(obj snapshot.Snapshottable) error {
	s.mu.Lock()
	if !s.inProgress {
		s.mu.Unlock()
		return ErrNoSnapshotStarted
	}
	cached := s.readOnly[obj]
	s.mu.Unlock()
	if cached != nil {
		s.roReuses.Inc()
	}
	if cached == nil {
		snap, err := obj.MakeSnapshot()
		if err != nil {
			return fmt.Errorf("core: saving read-only object: %w", err)
		}
		s.mu.Lock()
		if existing := s.readOnly[obj]; existing != nil {
			// Another goroutine raced us; keep the first snapshot.
			s.mu.Unlock()
			snap.Destroy()
			cached = existing
		} else {
			s.readOnly[obj] = snap
			s.mu.Unlock()
			cached = snap
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inProgress {
		return ErrNoSnapshotStarted
	}
	s.pending[obj] = cached
	return nil
}

// Commit atomically promotes the pending checkpoint to the recovery point
// and destroys the storage of the superseded one (read-only snapshots are
// shared between checkpoints and survive). Destroying the superseded
// snapshot also returns its payload buffers to the codec buffer pool, so
// the cycle is double-buffered in storage terms: from the second Commit on,
// each Save re-encodes into the buffers the previous Commit released and
// steady-state checkpoints allocate nothing for block payloads (see
// TestCheckpointCycleReusesBuffers).
func (s *AppResilientStore) Commit() error {
	s.mu.Lock()
	hook := s.commitHook
	active := s.inProgress
	s.mu.Unlock()
	if hook != nil && active {
		// Fire the commit fault point outside the lock: the hook may kill a
		// place, and the resulting ledger activity must not run under the
		// store's mutex. The commit itself is a place-zero-local promotion,
		// so it still succeeds; the next distributed operation observes the
		// death and triggers recovery from the just-committed checkpoint.
		if err := hook(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inProgress {
		return ErrNoSnapshotStarted
	}
	old := s.committed
	s.committed = s.pending
	s.committedIter = s.pendingIter
	s.pending = nil
	s.inProgress = false
	s.commits.Inc()
	s.destroyUnshared(old)
	s.mu.Unlock()
	// Replica repair runs outside the lock (it is a distributed
	// operation): any entry of the just-promoted checkpoint that is below
	// its target redundancy — a dropped replica put, a holder place lost
	// since the snapshot was taken — is re-replicated now, so the recovery
	// point regains its full failure tolerance at every commit.
	s.repairCommitted()
	s.mu.Lock()
	return nil
}

// repairCommitted runs snapshot.Repair toward the store's group over every
// snapshot of the committed checkpoint, counting healed entries. A repair
// error is non-fatal: the degraded gauge keeps the entry visible until a
// later repair succeeds. Callers must not hold s.mu.
func (s *AppResilientStore) repairCommitted() {
	s.mu.Lock()
	group := s.group
	snaps := make([]*snapshot.Snapshot, 0, len(s.committed))
	for _, snap := range s.committed {
		snaps = append(snaps, snap)
	}
	s.mu.Unlock()
	for _, snap := range snaps {
		healed, _ := snap.Repair(group)
		s.repairs.Add(int64(healed))
	}
}

// CancelSnapshot discards a failed in-progress checkpoint, releasing its
// storage; the previous recovery point remains valid.
func (s *AppResilientStore) CancelSnapshot() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inProgress {
		return
	}
	s.destroyUnshared(s.pending)
	s.pending = nil
	s.inProgress = false
	s.cancels.Inc()
}

// destroyUnshared releases the snapshots of set that are not read-only
// caches and not part of the committed checkpoint, recycling their pooled
// payload buffers for the next checkpoint. Callers hold s.mu.
func (s *AppResilientStore) destroyUnshared(set map[snapshot.Snapshottable]*snapshot.Snapshot) {
	for obj, snap := range set {
		if s.readOnly[obj] == snap {
			continue
		}
		if s.committed != nil && s.committed[obj] == snap {
			continue
		}
		snap.Destroy()
	}
}

// Restore restores every object of the committed checkpoint in parallel
// (paper Listing 5, line 14: one restore() call recovers all saved
// objects). Each object must already have been remade over the new place
// group by the application's Restore method, so each restores only the
// fragments their current owner lost: a fragment Remake retained at a
// surviving place is kept when it validates against the snapshot digest.
// After a successful restore, every committed snapshot is repaired toward
// the store's group: a slot of a dead place moves onto the place that
// replaced it and is refilled from the surviving copies, so a second
// failure cannot hit a half-replicated checkpoint — read-only inputs included, which are never
// re-taken.
func (s *AppResilientStore) Restore() error {
	s.mu.Lock()
	committed := s.committed
	s.mu.Unlock()
	if committed == nil {
		return ErrNoSnapshot
	}
	var (
		wg   sync.WaitGroup
		emu  sync.Mutex
		errs []error
	)
	for obj, snap := range committed {
		obj, snap := obj, snap
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := obj.RestoreSnapshot(snap); err != nil {
				emu.Lock()
				errs = append(errs, err)
				emu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return fmt.Errorf("core: restore: %w", errors.Join(errs...))
	}
	// Every committed snapshot still names the dead place. Heal now rather
	// than at the next commit; one more failure before that commit must
	// not lose the recovery point.
	s.repairCommitted()
	return nil
}

// HasSnapshot reports whether a checkpoint has been committed.
func (s *AppResilientStore) HasSnapshot() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committed != nil
}
