package snapshot

import (
	"errors"
	"fmt"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
)

// loadKey loads key (owned by ownerIdx) from the main activity.
func loadKey(t *testing.T, rt *apgas.Runtime, s *Snapshot, key, ownerIdx int) ([]byte, error) {
	t.Helper()
	var (
		data []byte
		lerr error
	)
	err := rt.Finish(func(ctx *apgas.Ctx) {
		data, lerr = s.Load(ctx, key, ownerIdx)
	})
	if err != nil {
		t.Fatal(err)
	}
	return data, lerr
}

// TestReplicateK3SurvivesDoubleFailure pins the tentpole guarantee for
// k=3: killing an entry's owner AND its first backup in the same window
// still leaves the second backup serving the bytes.
func TestReplicateK3SurvivesDoubleFailure(t *testing.T) {
	rt, _ := newInstrumentedRT(t, 5, apgas.WithStorePolicy(apgas.ReplicateStore(3)))
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	// Entry 1 lives at places 1 (owner), 2 and 3. Kill owner and first
	// backup together — the correlated failure k=2 cannot survive.
	for _, id := range []int{1, 2} {
		if err := rt.Kill(rt.Place(id)); err != nil {
			t.Fatal(err)
		}
	}
	data, lerr := loadKey(t, rt, s, 1, 1)
	if lerr != nil {
		t.Fatalf("Load after double failure: %v", lerr)
	}
	if string(data) != "data-1" {
		t.Fatalf("got %q, want %q", data, "data-1")
	}
}

// TestReplicateK2DoubleFailureIsLoudLoss pins the k=2 counterpart: the
// same correlated failure is unrecoverable, and surfaces as ErrDataLost —
// never as a silent missing key or corrupt read.
func TestReplicateK2DoubleFailureIsLoudLoss(t *testing.T) {
	rt, _ := newInstrumentedRT(t, 5, apgas.WithStorePolicy(apgas.ReplicateStore(2)))
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	for _, id := range []int{1, 2} {
		if err := rt.Kill(rt.Place(id)); err != nil {
			t.Fatal(err)
		}
	}
	if _, lerr := loadKey(t, rt, s, 1, 1); !errors.Is(lerr, ErrDataLost) {
		t.Fatalf("Load = %v, want ErrDataLost", lerr)
	}
}

// TestErasureRoundTripAndReconstruction drives the erasure placement end
// to end: save at every place, kill p places, and reconstruct every
// entry bit-identically from the surviving shards.
func TestErasureRoundTripAndReconstruction(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 5, apgas.WithStorePolicy(apgas.ErasureStore(3, 2)))
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)

	// Fast path first: with all shards present, every key loads.
	for key := 0; key < pg.Size(); key++ {
		data, lerr := loadKey(t, rt, s, key, key)
		if lerr != nil {
			t.Fatalf("Load(%d) with full shard set: %v", key, lerr)
		}
		if want := fmt.Sprintf("data-%d", key); string(data) != want {
			t.Fatalf("Load(%d) = %q, want %q", key, data, want)
		}
	}
	rebuilds0 := reg.Counter("snapshot.shards.rebuilt").Value()

	// Tolerance is p=2: kill two adjacent places (owner + next shard
	// holder of entry 1) and reconstruct everything.
	for _, id := range []int{1, 2} {
		if err := rt.Kill(rt.Place(id)); err != nil {
			t.Fatal(err)
		}
	}
	for key := 0; key < pg.Size(); key++ {
		data, lerr := loadKey(t, rt, s, key, key)
		if lerr != nil {
			t.Fatalf("Load(%d) after double failure: %v", key, lerr)
		}
		if want := fmt.Sprintf("data-%d", key); string(data) != want {
			t.Fatalf("Load(%d) = %q, want %q", key, data, want)
		}
	}
	if got := reg.Counter("snapshot.shards.rebuilt").Value(); got <= rebuilds0 {
		t.Fatalf("shards.rebuilt = %d, want > %d (data shards died)", got, rebuilds0)
	}
}

// TestErasureTooManyFailuresIsLoudLoss kills more places than the parity
// tolerates: fewer than d shards survive, which must be reported as
// ErrDataLost.
func TestErasureTooManyFailuresIsLoudLoss(t *testing.T) {
	rt, _ := newInstrumentedRT(t, 4, apgas.WithStorePolicy(apgas.ErasureStore(3, 1)))
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	for _, id := range []int{1, 2} {
		if err := rt.Kill(rt.Place(id)); err != nil {
			t.Fatal(err)
		}
	}
	// Entry 0's shards live at places 0,1,2,3; places 1 and 2 are gone, so
	// only 2 of d=3 data-equivalents survive.
	if _, lerr := loadKey(t, rt, s, 0, 0); !errors.Is(lerr, ErrDataLost) {
		t.Fatalf("Load = %v, want ErrDataLost", lerr)
	}
}

// TestErasureStorageOverhead pins the erasure mode's reason to exist: the
// stored bytes stay within (d+p)/d of the payload (plus shard-padding
// slack), far below the k-replication multiple with the same tolerance.
func TestErasureStorageOverhead(t *testing.T) {
	rt, _ := newInstrumentedRT(t, 6, apgas.WithStorePolicy(apgas.ErasureStore(4, 2)))
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	const payload = 4096
	err = apgas.ForEachPlace(rt, pg, func(ctx *apgas.Ctx, idx int) {
		data := make([]byte, payload)
		for i := range data {
			data[i] = byte(idx + i)
		}
		s.Save(ctx, idx, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	stored, err := s.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	raw := payload * pg.Size()
	// (d+p)/d = 1.5; allow 1% slack for shard padding.
	limit := raw * 3 / 2 * 101 / 100
	if stored > limit {
		t.Fatalf("stored %d bytes for %d raw, want <= %d ((d+p)/d bound)", stored, raw, limit)
	}
}

// TestPolicyClampTrace checks that a policy wider than the group clamps
// with a "snapshot.policy.clamped" trace instead of panicking, that
// erasure clamping sheds parity before data, and that the clamped store
// still round-trips.
func TestPolicyClampTrace(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 3, apgas.WithStorePolicy(apgas.ReplicateStore(5)))
	pg := rt.World()

	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	if s.pol.Replicas != 3 {
		t.Fatalf("clamped k = %d, want 3", s.pol.Replicas)
	}
	found := false
	for _, ev := range reg.TraceEvents() {
		if ev.Name == "snapshot.policy.clamped" && ev.A == 5 && ev.B == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("no snapshot.policy.clamped trace for k=5 on 3 places")
	}
	saveAll(t, rt, s, pg)
	if data, lerr := loadKey(t, rt, s, 1, 1); lerr != nil || string(data) != "data-1" {
		t.Fatalf("clamped store load = %q, %v", data, lerr)
	}

	// Erasure d=4,p=2 on 3 places: parity sheds first (p=2 fits), then
	// data shrinks to fill what remains: d=1, p=2.
	rt, _ = newInstrumentedRT(t, 3, apgas.WithStorePolicy(apgas.ErasureStore(4, 2)))
	pg = rt.World()
	se, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	if se.pol.Placement != apgas.PlacementErasure || se.pol.DataShards != 1 || se.pol.ParityShards != 2 {
		t.Fatalf("clamped erasure policy = %+v, want d=1 p=2", se.pol)
	}
	saveAll(t, rt, se, pg)
	if data, lerr := loadKey(t, rt, se, 2, 2); lerr != nil || string(data) != "data-2" {
		t.Fatalf("clamped erasure load = %q, %v", data, lerr)
	}
}

// TestSinglePlaceGroupDegeneratesToK1 pins the size-1 corner: any policy
// resolves to a single local copy (there is nowhere to put redundancy),
// save/load round-trips, and Repair is a no-op rather than a panic.
func TestSinglePlaceGroupDegeneratesToK1(t *testing.T) {
	for _, sp := range []apgas.StorePolicy{
		apgas.ReplicateStore(3),
		apgas.ErasureStore(4, 2),
		{}, // paper default
	} {
		rt, _ := newInstrumentedRT(t, 1, apgas.WithStorePolicy(sp))
		pg := rt.World()
		s, err := New(rt, pg)
		if err != nil {
			t.Fatal(err)
		}
		if s.pol.Placement == apgas.PlacementErasure || s.pol.Replicas != 1 {
			t.Fatalf("policy %v on 1 place resolved to %+v, want k=1", sp, s.pol)
		}
		saveAll(t, rt, s, pg)
		if data, lerr := loadKey(t, rt, s, 0, 0); lerr != nil || string(data) != "data-0" {
			t.Fatalf("single-place load = %q, %v", data, lerr)
		}
		if healed, err := s.Repair(nil); healed != 0 || err != nil {
			t.Fatalf("Repair on k=1 = (%d, %v), want (0, nil)", healed, err)
		}
		s.Destroy()
	}
}

// TestRepairHealsDroppedReplica is the satellite-1 regression at the
// snapshot layer: a dropped replica put leaves the entry degraded (gauge
// up), Repair re-replicates it from the owner (gauge back down), and the
// owner's subsequent death no longer loses the entry.
func TestRepairHealsDroppedReplica(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 3)
	inj := &flakyInjector{failures: -1}
	rt.SetInjector(inj)

	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	if got := reg.Gauge("snapshot.replicas.degraded").Value(); got != 3 {
		t.Fatalf("degraded gauge = %d, want 3 (all backup puts dropped)", got)
	}

	// The transient condition clears; the next commit's Repair heals.
	rt.SetInjector(nil)
	healed, err := s.Repair(nil)
	if err != nil {
		t.Fatal(err)
	}
	if healed != 3 {
		t.Fatalf("Repair healed %d entries, want 3", healed)
	}
	if got := reg.Gauge("snapshot.replicas.degraded").Value(); got != 0 {
		t.Fatalf("degraded gauge after repair = %d, want 0", got)
	}
	if got := reg.Counter("snapshot.replicas.repaired").Value(); got != 3 {
		t.Fatalf("replicas.repaired = %d, want 3", got)
	}

	// The killer test: the owner of a previously degraded entry dies, and
	// the repaired replica serves the bytes — no ErrDataLost.
	if err := rt.Kill(rt.Place(1)); err != nil {
		t.Fatal(err)
	}
	data, lerr := loadKey(t, rt, s, 1, 1)
	if lerr != nil {
		t.Fatalf("Load after owner death post-repair: %v", lerr)
	}
	if string(data) != "data-1" {
		t.Fatalf("got %q", data)
	}
}

// TestRepairReplacesDeadBackup checks death-driven repair: when a backup
// place dies, Repair re-replicates the affected entries to a substitute
// slot outside the base pair, and Load finds the substitute copy.
func TestRepairReplacesDeadBackup(t *testing.T) {
	rt, _ := newInstrumentedRT(t, 4, apgas.WithStorePolicy(apgas.ReplicateStore(2)))
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)

	// Entry 1's backup is place 2. Kill it; repair must re-replicate entry
	// 1 (from owner 1) and entry 2 (from its backup at 3) to substitutes.
	if err := rt.Kill(rt.Place(2)); err != nil {
		t.Fatal(err)
	}
	healed, err := s.Repair(nil)
	if err != nil {
		t.Fatal(err)
	}
	if healed != 2 {
		t.Fatalf("Repair healed %d entries, want 2 (owned by 1 and 2)", healed)
	}

	// Now the owner of entry 1 dies too: without the repair this would be
	// the classic double-failure data loss; with it, the substitute copy
	// serves.
	if err := rt.Kill(rt.Place(1)); err != nil {
		t.Fatal(err)
	}
	data, lerr := loadKey(t, rt, s, 1, 1)
	if lerr != nil {
		t.Fatalf("Load after owner death post-repair: %v", lerr)
	}
	if string(data) != "data-1" {
		t.Fatalf("got %q", data)
	}
}

// TestRepairRebuildsLostShards is death-driven repair in erasure mode:
// a dead shard holder's shards are reconstructed from the survivors and
// placed at substitute slots, restoring full tolerance.
func TestRepairRebuildsLostShards(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 5, apgas.WithStorePolicy(apgas.ErasureStore(3, 1)))
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)

	// p=1 tolerates one failure. Kill place 2, then repair: every entry
	// with a shard at place 2 is rebuilt back to 4 live shards.
	if err := rt.Kill(rt.Place(2)); err != nil {
		t.Fatal(err)
	}
	healed, err := s.Repair(nil)
	if err != nil {
		t.Fatal(err)
	}
	if healed == 0 {
		t.Fatal("Repair healed nothing after a shard holder died")
	}
	if got := reg.Counter("snapshot.shards.rebuilt").Value(); got == 0 {
		t.Fatal("no shard reconstructions counted during repair")
	}

	// A second failure — beyond the nominal p=1 — is now survivable
	// because repair restored full tolerance.
	if err := rt.Kill(rt.Place(1)); err != nil {
		t.Fatal(err)
	}
	for key := 0; key < pg.Size(); key++ {
		data, lerr := loadKey(t, rt, s, key, key)
		if lerr != nil {
			t.Fatalf("Load(%d) after second failure post-repair: %v", key, lerr)
		}
		if want := fmt.Sprintf("data-%d", key); string(data) != want {
			t.Fatalf("Load(%d) = %q, want %q", key, data, want)
		}
	}
}

// TestRepairRehomesDeadSlot pins Repair's first step under both
// placements: the dead place's slot moves onto the replacement standing at
// its index, the census refills it at its base slot (no substitute
// extras), and the snapshot is back at full tolerance — a further death
// loses nothing. A second Repair with no new death neither moves nor
// walks.
func TestRepairRehomesDeadSlot(t *testing.T) {
	for _, sp := range []apgas.StorePolicy{apgas.ReplicateStore(2), apgas.ErasureStore(2, 1)} {
		t.Run(sp.String(), func(t *testing.T) {
			rt, reg := newInstrumentedRT(t, 5, apgas.WithStorePolicy(sp))
			pg := rt.World()[:4]
			s, err := New(rt, pg)
			if err != nil {
				t.Fatal(err)
			}
			saveAll(t, rt, s, pg)
			if err := rt.Kill(rt.Place(1)); err != nil {
				t.Fatal(err)
			}
			group := apgas.PlaceGroup{rt.Place(0), rt.Place(4), rt.Place(2), rt.Place(3)}
			healed, err := s.Repair(group)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Group().Equal(group) {
				t.Fatalf("snapshot group after Repair = %v, want %v", s.Group(), group)
			}
			// Slot 1 holds entries 0 and 1 under k=2 and a shard of entries
			// 3, 0 and 1 under d+p=3.
			want := 2
			if sp.Placement == apgas.PlacementErasure {
				want = 3
			}
			if healed != want || len(s.stores[1].entries) != want {
				t.Fatalf("healed %d, slot 1 holds %d entries; want %d", healed, len(s.stores[1].entries), want)
			}
			if len(s.deg.extras) != 0 {
				t.Fatalf("substitute holders %v, want none: the moved slot is refilled", s.deg.extras)
			}
			for name, want := range map[string]int64{"snapshot.slots.rehomed": 1, "snapshot.repair.censuses": 1} {
				if got := reg.Counter(name).Value(); got != want {
					t.Fatalf("%s = %d, want %d", name, got, want)
				}
			}
			if healed, err := s.Repair(group); healed != 0 || err != nil {
				t.Fatalf("second Repair = (%d, %v), want (0, nil)", healed, err)
			}
			if got := reg.Counter("snapshot.repair.censuses").Value(); got != 1 {
				t.Fatalf("censuses after a Repair with no new death = %d, want 1", got)
			}
			if err := rt.Kill(rt.Place(4)); err != nil {
				t.Fatal(err)
			}
			for key := range pg {
				if data, lerr := loadKey(t, rt, s, key, key); lerr != nil || string(data) != fmt.Sprintf("data-%d", key) {
					t.Fatalf("Load(%d) after the replacement died = %q, %v", key, data, lerr)
				}
			}
		})
	}
}

// TestRepairCensusOnlyAfterNewDeath pins when Repair walks every entry:
// once per new death. A slot with nowhere to move (a shrink) stays dead,
// and the commits after the census that healed around it must not walk
// the snapshot again.
func TestRepairCensusOnlyAfterNewDeath(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 4)
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	censuses := reg.Counter("snapshot.repair.censuses")
	repair := func(wantHealed int, wantCensuses int64) {
		t.Helper()
		healed, err := s.Repair(pg.Without(rt.Place(2)))
		if err != nil {
			t.Fatal(err)
		}
		if healed != wantHealed || censuses.Value() != wantCensuses {
			t.Fatalf("Repair healed %d after %d censuses, want %d after %d", healed, censuses.Value(), wantHealed, wantCensuses)
		}
	}
	repair(0, 0)
	if err := rt.Kill(rt.Place(2)); err != nil {
		t.Fatal(err)
	}
	repair(2, 1)
	repair(0, 1)
	repair(0, 1)
	// Entries 1, 2 and 3 each lose a holder with place 3.
	if err := rt.Kill(rt.Place(3)); err != nil {
		t.Fatal(err)
	}
	repair(3, 2)
	for key := range pg {
		if _, lerr := loadKey(t, rt, s, key, key); lerr != nil {
			t.Fatalf("Load(%d): %v", key, lerr)
		}
	}
}

// TestRepairPlacesEachRebuiltShardOnce pins erasure repair's placement
// when one missing shard's base slot is dead and another's is a live slot
// that lost its shard: shard 3 goes back to its base slot 3, shard 1 to
// the one live slot outside the base set, and the entry regains its full
// width, so two further deaths still leave d shards.
func TestRepairPlacesEachRebuiltShardOnce(t *testing.T) {
	rt, _ := newInstrumentedRT(t, 6, apgas.WithStorePolicy(apgas.ErasureStore(3, 2)))
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Finish(func(ctx *apgas.Ctx) { s.Save(ctx, 0, []byte("data-0")) }); err != nil {
		t.Fatal(err)
	}
	if err := rt.Kill(rt.Place(1)); err != nil {
		t.Fatal(err)
	}
	s.stores[3].mu.Lock()
	delete(s.stores[3].entries, 0)
	s.stores[3].mu.Unlock()
	if healed, err := s.Repair(nil); healed != 1 || err != nil {
		t.Fatalf("Repair = (%d, %v), want (1, nil)", healed, err)
	}
	for gi, want := range map[int]int{3: 3, 5: 1} {
		if e, ok := s.stores[gi].get(0); !ok || e.shardIdx != want {
			t.Fatalf("slot %d holds shard %v (present %v), want shard %d", gi, e, ok, want)
		}
	}
	for _, p := range []int{2, 4} {
		if err := rt.Kill(rt.Place(p)); err != nil {
			t.Fatal(err)
		}
	}
	if data, lerr := loadKey(t, rt, s, 0, 0); lerr != nil || string(data) != "data-0" {
		t.Fatalf("Load after two more deaths = %q, %v", data, lerr)
	}
}

// TestDestroyClearsDegradedGauge checks that destroying a snapshot with
// still-degraded entries removes them from the global gauge (they are no
// longer live recoverable state).
func TestDestroyClearsDegradedGauge(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 3)
	rt.SetInjector(&flakyInjector{failures: -1})
	defer rt.SetInjector(nil)
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	if got := reg.Gauge("snapshot.replicas.degraded").Value(); got != 3 {
		t.Fatalf("degraded gauge = %d, want 3", got)
	}
	s.Destroy()
	if got := reg.Gauge("snapshot.replicas.degraded").Value(); got != 0 {
		t.Fatalf("degraded gauge after Destroy = %d, want 0", got)
	}
}

// TestErasureDigestReportsFullPayload checks that Digest under erasure
// describes the reassembled payload (sum and length), not one shard, and
// that it survives holder deaths like Load does.
func TestErasureDigestReportsFullPayload(t *testing.T) {
	rt, _ := newInstrumentedRT(t, 4, apgas.WithStorePolicy(apgas.ErasureStore(2, 2)))
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	want := []byte("data-1")
	var (
		sum  uint32
		size int
	)
	err = rt.Finish(func(ctx *apgas.Ctx) {
		var derr error
		sum, size, derr = s.Digest(ctx, 1, 1)
		if derr != nil {
			apgas.Throw(derr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if size != len(want) {
		t.Fatalf("Digest size = %d, want %d", size, len(want))
	}
	data, lerr := loadKey(t, rt, s, 1, 1)
	if lerr != nil {
		t.Fatal(lerr)
	}
	if string(data) != string(want) {
		t.Fatalf("Load = %q", data)
	}
	_ = sum
}
