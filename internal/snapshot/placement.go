package snapshot

import (
	"github.com/rgml/rgml/internal/apgas"
)

// resolvePolicy turns the runtime's StorePolicy (the paper default of
// replicate k=2 when unset) into a normalized policy that fits a group of
// the given size: its Width is the number of consecutive group slots one
// entry occupies, its Tolerance how many place failures an entry survives. A policy wider than the group is clamped — never a panic — and
// the clamp is recorded as a "snapshot.policy.clamped" trace event
// carrying (requested width, effective width). Erasure clamping sheds parity
// before data so the geometry keeps as much tolerance as the group can
// physically hold; a single-place group degenerates to replicate k=1
// (there is nowhere to put redundancy).
func resolvePolicy(rt *apgas.Runtime, size int) apgas.StorePolicy {
	sp := rt.StorePolicy()
	if sp.IsZero() {
		sp = apgas.ReplicateStore(2)
	}
	sp = sp.Normalized()
	if sp.Placement == apgas.PlacementErasure {
		d, p := sp.DataShards, sp.ParityShards
		if size < 2 {
			rt.Obs().Trace("snapshot.policy.clamped", int64(d+p), 1)
			return apgas.ReplicateStore(1)
		}
		if d+p > size {
			cp := p
			if cp > size-1 {
				cp = size - 1
			}
			cd := d
			if cd > size-cp {
				cd = size - cp
			}
			rt.Obs().Trace("snapshot.policy.clamped", int64(d+p), int64(cd+cp))
			d, p = cd, cp
		}
		return apgas.ErasureStore(d, p)
	}
	k := sp.Replicas
	if k < 1 {
		k = 1
	}
	if k > size {
		rt.Obs().Trace("snapshot.policy.clamped", int64(k), int64(size))
		k = size
	}
	return apgas.ReplicateStore(k)
}

// slotOf returns the group index of the i-th slot of an entry owned by
// ownerIdx: consecutive group members starting at the owner, wrapping.
func (s *Snapshot) slotOf(ownerIdx, i int) int {
	return (ownerIdx + i) % s.pg.Size()
}

// baseSlots returns the group indices of an owner's slot set, owner
// first. Clamping guarantees width <= group size, so the slots are
// distinct places.
func (s *Snapshot) baseSlots(ownerIdx int) []int {
	w := s.pol.Width()
	out := make([]int, w)
	for i := range out {
		out[i] = s.slotOf(ownerIdx, i)
	}
	return out
}

// holderSlots returns baseSlots plus any repair-time extra holders
// recorded for key, deduplicated, base order first.
func (s *Snapshot) holderSlots(key, ownerIdx int) []int {
	out := s.baseSlots(ownerIdx)
	s.deg.mu.Lock()
	extras := s.deg.extras[key]
	s.deg.mu.Unlock()
	for _, gi := range extras {
		dup := false
		for _, b := range out {
			if b == gi {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, gi)
		}
	}
	return out
}
