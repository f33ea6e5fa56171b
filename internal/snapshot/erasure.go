package snapshot

import (
	"fmt"
	"sync"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/codec"
)

// This file is the erasure-coded placement mode: instead of k full
// copies, each entry is split into d data + p parity Reed-Solomon shards
// placed at d+p consecutive group slots starting at the owner. Any p
// place failures are survivable at (d+p)/d storage overhead instead of
// the k-fold overhead of replication. Shard encode/reconstruct run
// through the internal/par engine (inside the codec), and every shard
// that crosses a place boundary is counted in apgas.net.* exactly like a
// replica put.

// saveErasure shards data and places the shards across the entry's slot
// set. The owner's shard is stored locally; the d+p-1 remote shards are
// shipped as async replica puts (same retry/degradation semantics as a
// full replica, see putReplica). sum and len(data) describe the full
// payload and travel in the shared shardSet; each shard additionally
// carries its own CRC so a corrupt shard is detected before it poisons a
// reconstruction. When pooled, data came from the codec pool and is
// recycled immediately after sharding — only the shards are retained.
func (s *Snapshot) saveErasure(ctx *apgas.Ctx, key int, data []byte, sum uint32, pooled bool) {
	idx := s.pg.IndexOf(ctx.Here)
	if idx < 0 {
		panic(fmt.Sprintf("snapshot: Save from %v, not a member of %v", ctx.Here, s.pg))
	}
	shards, err := codec.RSEncode(data, s.pol.d, s.pol.p)
	if err != nil {
		// resolvePolicy clamped the geometry to a valid one; a failure here
		// is a programming error, not an input error.
		panic(fmt.Sprintf("snapshot: erasure encode d=%d p=%d: %v", s.pol.d, s.pol.p, err))
	}
	set := &shardSet{fullSum: sum, fullLen: len(data)}
	s.instr.saves.Inc()
	s.instr.saveBytes.Add(int64(len(data)))
	for i, shard := range shards {
		e := newEntry(shard, codec.Checksum(shard), true)
		e.owner = idx
		e.shardIdx = i
		e.set = set
		slot := s.slotOf(idx, i)
		if slot == idx {
			s.plh.Local(ctx).put(key, e)
			continue
		}
		tgt := s.pg[slot]
		s.instr.shards.Inc()
		s.instr.backupBytes.Add(int64(len(shard)))
		ctx.TransferSnapshot(tgt, len(shard))
		ctx.AsyncAt(tgt, func(c *apgas.Ctx) {
			s.putReplica(c, key, e, idx)
		})
	}
	if pooled {
		codec.PutBuffer(data)
	}
}

// loadErasure gathers the surviving shards of key's slot set in parallel
// (one async fetch per live holder under a nested finish), reconstructs
// any missing data shards, and reassembles the payload. Remote shard
// fetches are counted in apgas.net.* at fetch time, mirroring
// Load's byte accounting. The reassembled payload is verified against
// the save-time full-payload CRC, so a bad reconstruction can never be
// returned silently.
func (s *Snapshot) loadErasure(ctx *apgas.Ctx, key, ownerIdx int) ([]byte, error) {
	s.instr.loads.Inc()
	d, p := s.pol.d, s.pol.p
	n := d + p
	var (
		mu         sync.Mutex
		shards     = make([][]byte, n)
		set        *shardSet
		present    int
		sawCorrupt bool
		anyAlive   bool
		ownerHeld  bool
		remote     bool
	)
	origin := ctx.Here
	err := ctx.FinishFrom(func(fc *apgas.Ctx) {
		for _, slot := range s.holderSlots(key, ownerIdx) {
			pl := s.pg[slot]
			if s.rt.IsDead(pl) {
				continue
			}
			anyAlive = true
			slot := slot
			isLocal := pl.ID == origin.ID
			collect := func(c *apgas.Ctx) {
				e, ok := s.plh.Local(c).get(key)
				if !ok || e.set == nil || e.shardIdx >= n {
					return
				}
				if !e.verify() {
					s.instr.crcFailures.Inc()
					s.rt.Obs().Trace("snapshot.replica.corrupt", int64(key), int64(ownerIdx))
					mu.Lock()
					sawCorrupt = true
					mu.Unlock()
					return
				}
				if !isLocal {
					// Charged (and counted) at fetch time, like Load.
					c.TransferSnapshot(origin, len(e.data))
					s.instr.loadBytes.Add(int64(len(e.data)))
				}
				mu.Lock()
				defer mu.Unlock()
				if shards[e.shardIdx] != nil {
					return
				}
				shards[e.shardIdx] = e.data
				set = e.set
				present++
				if slot == ownerIdx {
					ownerHeld = true
				}
				if !isLocal {
					remote = true
				}
			}
			if isLocal {
				collect(fc)
			} else {
				fc.AsyncAt(pl, collect)
			}
		}
	})
	if err != nil && !apgas.IsDeadPlace(err) {
		return nil, fmt.Errorf("snapshot: key %d owner %d: gathering shards: %w", key, ownerIdx, err)
	}
	if present < d {
		switch {
		case sawCorrupt:
			return nil, fmt.Errorf("snapshot: key %d owner %d: %w", key, ownerIdx, ErrCorrupt)
		case present > 0 || !anyAlive || s.isDegraded(key):
			// Shards survive but too few to decode — the entry existed and
			// is now unrecoverable (or its holders are all dead, or a shard
			// put was dropped and never repaired). Loud loss, not a missing
			// key.
			s.instr.lost.Inc()
			s.rt.Obs().Trace("snapshot.entry.lost", int64(key), int64(ownerIdx))
			return nil, fmt.Errorf("snapshot: key %d owner %d: %w", key, ownerIdx, ErrDataLost)
		default:
			return nil, fmt.Errorf("snapshot: key %d owner %d: %w", key, ownerIdx, ErrNotFound)
		}
	}
	if remote {
		s.instr.loadRemote.Inc()
	} else {
		s.instr.loadLocal.Inc()
		s.instr.loadBytes.Add(int64(set.fullLen))
	}
	if !ownerHeld {
		s.instr.fallbacks.Inc()
	}
	needRebuild := false
	for i := 0; i < d; i++ {
		if shards[i] == nil {
			needRebuild = true
			break
		}
	}
	if needRebuild {
		s.instr.rebuilds.Inc()
		rebuilt := make([]bool, n)
		for i, sh := range shards {
			rebuilt[i] = sh == nil
		}
		if rerr := codec.RSReconstruct(shards, d, p); rerr != nil {
			return nil, fmt.Errorf("snapshot: key %d owner %d: reconstruct: %w", key, ownerIdx, rerr)
		}
		// The rebuilt shards are transient scratch — the store keeps only
		// what was fetched — so they go back to the pool after reassembly.
		defer func() {
			for i, rb := range rebuilt {
				if rb && shards[i] != nil {
					codec.PutBuffer(shards[i])
				}
			}
		}()
	}
	out := codec.RSJoin(make([]byte, set.fullLen), shards, d, set.fullLen)
	if codec.Checksum(out) != set.fullSum {
		s.instr.crcFailures.Inc()
		s.rt.Obs().Trace("snapshot.replica.corrupt", int64(key), int64(ownerIdx))
		return nil, fmt.Errorf("snapshot: key %d owner %d: reassembled payload: %w", key, ownerIdx, ErrCorrupt)
	}
	return out, nil
}
