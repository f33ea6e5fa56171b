package snapshot

import (
	"fmt"
	"maps"
	"sort"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/obs"
)

// This file is replica repair: bringing entries that fell below their
// target redundancy — a replica put dropped after retry exhaustion, a
// holder place killed, a partial-spare replacement that shrank the live
// group — back to target from the surviving copies or shards. The
// application store runs Repair at every checkpoint commit and after a
// restore, so a degraded entry stays one commit away from full redundancy
// and the double-failure window closes instead of persisting silently
// until the owner also dies. After a replacement, Repair first moves each
// dead slot onto a place that took over, so a snapshot kept across
// recoveries (a read-only input) regains its full width by shipping only
// what the dead place held — nothing is re-encoded.

// Repair heals the snapshot toward group, the application's current place
// group, returning how many entries it healed. It runs in two steps:
//
//  1. Each dead slot of the snapshot's group moves to a live place of
//     group that the snapshot does not use yet, preferring the place at
//     the slot's own index (where a replacement stands), and gets an empty
//     store there. A nil group, or one with no such place (a shrink),
//     leaves the slot dead.
//  2. A census re-replicates every entry below its target redundancy from
//     the surviving copies or shards. The target is the policy width
//     clamped to the live group size: with fewer live places than slots,
//     repair raises an entry as high as the group can physically hold and
//     leaves it tracked as degraded. Repaired copies may land outside the
//     entry's base slot set (when a base slot is dead); those substitute
//     holders are recorded so Load/Digest probe them.
//
// The census walks every entry only after a new death or a move; otherwise
// it examines just the entries tracked as degraded, so a commit with
// nothing new to heal costs no walk.
//
// Repair reads peer stores directly (the emulation's shared memory) to
// census holders, but every payload shipped to a new holder is counted
// in apgas.net.* from the donor's place and lands through the same
// fault-injected put path as a checkpoint replica. It must not run
// concurrently with other operations on the snapshot.
func (s *Snapshot) Repair(group apgas.PlaceGroup) (int, error) {
	if s == nil || s.destroyed.Load() || !s.plh.Valid() {
		return 0, nil
	}
	if s.pol.Tolerance() == 0 {
		// k=1 (backups disabled or single-place group): there is no target
		// redundancy to repair toward.
		return 0, nil
	}
	moved, err := s.rehome(group)
	if err != nil {
		return 0, err
	}
	dead := s.pg.Size() - s.liveGroupCount()
	census := moved || dead > s.censusDead
	targets := s.repairTargets(census)
	// Stable order keeps traces and network charges deterministic.
	keys := make([]int, 0, len(targets))
	for k := range targets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	healed := 0
	var firstErr error
	for _, key := range keys {
		ok, err := s.repairEntry(key, targets[key])
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if ok {
			healed++
			s.instr.repaired.Inc()
			s.rt.Obs().Trace("snapshot.replica.repaired", int64(key), int64(targets[key]))
		}
	}
	if census && firstErr == nil {
		// Every entry that lost a holder is now at target or tracked as
		// degraded; the next census waits for a further death.
		s.censusDead = dead
	}
	return healed, firstErr
}

// rehome is Repair's first step: it moves each dead slot onto a free live
// place of group (see freePlace) with an empty store, reporting whether
// any slot moved. The stores are created in one finish; a place that dies
// before its store exists leaves its slot dead. The dead place's store is
// dropped with it — its entries are gone, and the census refills the new
// store from the survivors.
func (s *Snapshot) rehome(group apgas.PlaceGroup) (bool, error) {
	var (
		pg    apgas.PlaceGroup
		slots []int
	)
	for gi, p := range s.pg {
		if !s.rt.IsDead(p) {
			continue
		}
		if pg == nil {
			pg = s.pg.Clone()
		}
		if np, ok := s.freePlace(group, gi, pg); ok {
			pg[gi] = np
			slots = append(slots, gi)
		}
	}
	if len(slots) == 0 {
		return false, nil
	}
	stores := make([]*placeStore, len(slots))
	err := s.rt.Finish(func(ctx *apgas.Ctx) {
		for i, gi := range slots {
			ctx.AsyncAt(pg[gi], func(c *apgas.Ctx) {
				ps := s.newPlaceStore()
				s.plh.SetLocal(c, ps)
				stores[i] = ps
			})
		}
	})
	if err != nil && !apgas.IsDeadPlace(err) {
		return false, fmt.Errorf("snapshot: rehoming slots: %w", err)
	}
	moved := false
	for i, gi := range slots {
		if stores[i] == nil {
			pg[gi] = s.pg[gi]
			continue
		}
		moved = true
		s.stores[gi] = stores[i]
		s.instr.rehomed.Inc()
		s.rt.Obs().Trace("snapshot.slot.rehomed", int64(gi), int64(pg[gi].ID))
	}
	s.pg = pg
	return moved, nil
}

// freePlace picks where dead slot gi moves: group's place at index gi
// when it is alive and not yet a slot of pg, else the first such place of
// group.
func (s *Snapshot) freePlace(group apgas.PlaceGroup, gi int, pg apgas.PlaceGroup) (apgas.Place, bool) {
	free := func(p apgas.Place) bool { return !s.rt.IsDead(p) && !pg.Contains(p) }
	if gi < group.Size() && free(group[gi]) {
		return group[gi], true
	}
	for _, p := range group {
		if free(p) {
			return p, true
		}
	}
	return apgas.Place{}, false
}

// repairTargets collects the (key, ownerIdx) pairs worth examining: every
// key tracked as degraded (dropped puts), plus — for a census — every
// entry in the surviving stores, since each of them may have lost a
// holder with a dead place or have a base slot that just moved.
func (s *Snapshot) repairTargets(census bool) map[int]int {
	s.deg.mu.Lock()
	targets := maps.Clone(s.deg.keys)
	s.deg.mu.Unlock()
	if !census {
		return targets
	}
	if targets == nil {
		targets = make(map[int]int)
	}
	s.instr.censuses.Inc()
	for gi, ps := range s.stores {
		if ps == nil || s.rt.IsDead(s.pg[gi]) {
			continue
		}
		ps.mu.Lock()
		for k, e := range ps.entries {
			if _, ok := targets[k]; !ok {
				targets[k] = e.owner
			}
		}
		ps.mu.Unlock()
	}
	return targets
}

// liveGroupCount counts the snapshot group's surviving places.
func (s *Snapshot) liveGroupCount() int {
	n := 0
	for _, p := range s.pg {
		if !s.rt.IsDead(p) {
			n++
		}
	}
	return n
}

// repairEntry examines one entry and re-replicates it if it is below
// target, reporting whether it reached target redundancy. The target is
// the policy width clamped to the live group size. An entry that cannot
// be raised yet (no verifiable copy, fewer than d shards left) stays in
// the degraded set; one whose redundancy is already at target is cleared
// from it without counting as a repair.
func (s *Snapshot) repairEntry(key, ownerIdx int) (bool, error) {
	if ownerIdx < 0 || ownerIdx >= s.pg.Size() {
		return false, fmt.Errorf("snapshot: repair key %d: owner index %d out of %d", key, ownerIdx, s.pg.Size())
	}
	holders, es := s.liveHolders(key, ownerIdx, nil)
	target := min(s.pol.Width(), s.liveGroupCount())
	if len(holders) >= target {
		s.clearDegraded(key)
		s.recordExtras(key, ownerIdx, holders)
		return false, nil
	}
	decodable := 1
	if s.pol.Placement == apgas.PlacementErasure {
		decodable = s.pol.DataShards
	}
	if len(holders) < decodable {
		// Every copy gone (or corrupt), or too few shards to decode:
		// unrepairable. Keep it tracked so loads report loss instead of a
		// missing key.
		s.noteDegraded(key, ownerIdx)
		return false, nil
	}
	dests := s.substituteSlots(key, ownerIdx, holders, target-len(holders))
	var err error
	if s.pol.Placement == apgas.PlacementErasure {
		err = s.shipShards(key, ownerIdx, holders[0], es, dests)
	} else {
		err = s.ship(key, ownerIdx, holders[0], dests, func(int) *entry { return es[0] }, s.instr.replicas)
	}
	if err != nil && !apgas.IsDeadPlace(err) {
		return false, fmt.Errorf("snapshot: repair key %d: %w", key, err)
	}
	// Re-census: puts can still be dropped by the injector or lose their
	// place mid-repair.
	holders, _ = s.liveHolders(key, ownerIdx, dests)
	if len(holders) < target {
		s.noteDegraded(key, ownerIdx)
		return false, nil
	}
	s.recordExtras(key, ownerIdx, holders)
	s.clearDegraded(key)
	return true, nil
}

// liveHolders censuses key's live, verifiable holders among its holder
// slots plus extra, returning their slots and entries in probe order.
// Under erasure only the first holder of each shard counts.
func (s *Snapshot) liveHolders(key, ownerIdx int, extra []int) (slots []int, es []*entry) {
	var seen []bool
	if s.pol.Placement == apgas.PlacementErasure {
		seen = make([]bool, s.pol.Width())
	}
	for _, gi := range append(s.holderSlots(key, ownerIdx), extra...) {
		if s.rt.IsDead(s.pg[gi]) || containsSlot(slots, gi) {
			continue
		}
		e, ok := s.stores[gi].get(key)
		if !ok || !e.verify() {
			continue
		}
		if seen != nil {
			if e.set == nil || e.shardIdx >= len(seen) || seen[e.shardIdx] {
				continue
			}
			seen[e.shardIdx] = true
		}
		slots = append(slots, gi)
		es = append(es, e)
	}
	return slots, es
}

// shipShards rebuilds an erasure-coded entry's missing shards from the
// surviving ones and ships one to each of dests from the donor slot. A
// missing shard whose base slot is among dests goes there, keeping the
// layout canonical; the others take the remaining dests in shard order.
// Rebuilt shards left without a destination go back to the pool.
func (s *Snapshot) shipShards(key, ownerIdx, donor int, es []*entry, dests []int) error {
	n := s.pol.Width()
	work := make([][]byte, n)
	for _, e := range es {
		work[e.shardIdx] = e.data
	}
	s.instr.rebuilds.Inc()
	if err := codec.RSReconstruct(work, s.pol.DataShards, s.pol.ParityShards); err != nil {
		return fmt.Errorf("reconstruct: %w", err)
	}
	shardAt := make(map[int]int, len(dests)) // dest slot -> shard index
	placed := make([]bool, n)
	for _, e := range es {
		placed[e.shardIdx] = true
	}
	var rest []int
	for _, gi := range dests {
		if i := (gi - ownerIdx + s.pg.Size()) % s.pg.Size(); i < n && !placed[i] {
			shardAt[gi], placed[i] = i, true
		} else {
			rest = append(rest, gi)
		}
	}
	for i := 0; i < n && len(rest) > 0; i++ {
		if !placed[i] {
			shardAt[rest[0]], placed[i] = i, true
			rest = rest[1:]
		}
	}
	for i, ok := range placed {
		if !ok {
			codec.PutBuffer(work[i])
		}
	}
	set := es[0].set
	return s.ship(key, ownerIdx, donor, dests, func(gi int) *entry {
		i := shardAt[gi]
		e := newEntry(work[i], codec.Checksum(work[i]), true)
		e.owner, e.shardIdx, e.set = ownerIdx, i, set
		return e
	}, s.instr.shards)
}

// ship runs one finish in which the donor slot's place sends entryFor(gi)
// to each slot gi of dests, counting each put in puts. Every payload is
// counted in apgas.net.* and lands through the same fault-injected
// put as a checkpoint replica.
func (s *Snapshot) ship(key, ownerIdx, donor int, dests []int, entryFor func(gi int) *entry, puts *obs.Counter) error {
	return s.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.AsyncAt(s.pg[donor], func(c *apgas.Ctx) {
			for _, gi := range dests {
				e, tgt := entryFor(gi), s.pg[gi]
				puts.Inc()
				s.instr.backupBytes.Add(int64(len(e.data)))
				c.TransferSnapshot(tgt, len(e.data))
				c.AsyncAt(tgt, func(cc *apgas.Ctx) {
					s.putReplica(cc, key, e, ownerIdx)
				})
			}
		})
	})
}

// substituteSlots picks up to need live group indices that are not
// already holders, walking outward from the owner so substitutes stay as
// close to the canonical layout as the live group allows.
func (s *Snapshot) substituteSlots(key, ownerIdx int, holders []int, need int) []int {
	var out []int
	for i := 0; i < s.pg.Size() && len(out) < need; i++ {
		gi := s.slotOf(ownerIdx, i)
		if s.rt.IsDead(s.pg[gi]) || containsSlot(holders, gi) || containsSlot(out, gi) {
			continue
		}
		out = append(out, gi)
	}
	return out
}

// recordExtras refreshes the extra-holder bookkeeping for key: the
// holders outside the entry's base slot set, which Load and Digest must
// probe in addition to the base slots.
func (s *Snapshot) recordExtras(key, ownerIdx int, holders []int) {
	base := s.baseSlots(ownerIdx)
	var extras []int
	for _, gi := range holders {
		if !containsSlot(base, gi) {
			extras = append(extras, gi)
		}
	}
	sort.Ints(extras)
	s.setExtras(key, extras)
}

func containsSlot(slots []int, gi int) bool {
	for _, s := range slots {
		if s == gi {
			return true
		}
	}
	return false
}
