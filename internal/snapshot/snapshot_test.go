package snapshot

import (
	"errors"
	"fmt"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/codec"
)

func newRT(t *testing.T, places int, opts ...apgas.Option) *apgas.Runtime {
	t.Helper()
	rt, err := apgas.New(append([]apgas.Option{apgas.WithPlaces(places), apgas.WithResilient(true)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

// saveAll writes one entry per place of pg, keyed by place index.
func saveAll(t *testing.T, rt *apgas.Runtime, s *Snapshot, pg apgas.PlaceGroup) {
	t.Helper()
	err := apgas.ForEachPlace(rt, pg, func(ctx *apgas.Ctx, idx int) {
		s.Save(ctx, idx, []byte(fmt.Sprintf("data-%d", idx)))
	})
	if err != nil {
		t.Fatalf("saveAll: %v", err)
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	rt := newRT(t, 4)
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	// Every place loads its own entry (local fast path).
	err = apgas.ForEachPlace(rt, pg, func(ctx *apgas.Ctx, idx int) {
		data, err := s.Load(ctx, idx, idx)
		if err != nil {
			apgas.Throw(err)
		}
		if string(data) != fmt.Sprintf("data-%d", idx) {
			apgas.Throw(fmt.Errorf("got %q", data))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadFromRemotePlace(t *testing.T) {
	rt := newRT(t, 3)
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	// Place 0 loads place 2's entry remotely.
	err = rt.Finish(func(ctx *apgas.Ctx) {
		data, err := s.Load(ctx, 2, 2)
		if err != nil {
			apgas.Throw(err)
		}
		if string(data) != "data-2" {
			apgas.Throw(fmt.Errorf("got %q", data))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadFallsBackToBackupAfterOwnerDeath(t *testing.T) {
	rt := newRT(t, 4)
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	// Kill place 2; its entry's backup lives at place 3.
	if err := rt.Kill(rt.Place(2)); err != nil {
		t.Fatal(err)
	}
	err = rt.Finish(func(ctx *apgas.Ctx) {
		data, err := s.Load(ctx, 2, 2)
		if err != nil {
			apgas.Throw(err)
		}
		if string(data) != "data-2" {
			apgas.Throw(fmt.Errorf("backup copy = %q", data))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLastPlaceBackupWrapsToFirst(t *testing.T) {
	rt := newRT(t, 3)
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	// Last place's backup wraps to index 0 (place 0, immortal here).
	if err := rt.Kill(rt.Place(2)); err != nil {
		t.Fatal(err)
	}
	err = rt.Finish(func(ctx *apgas.Ctx) {
		data, err := s.Load(ctx, 2, 2)
		if err != nil {
			apgas.Throw(err)
		}
		if string(data) != "data-2" {
			apgas.Throw(fmt.Errorf("got %q", data))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdjacentDoubleFailureLosesData(t *testing.T) {
	rt := newRT(t, 5)
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	// Entry 2 lives at places 2 (owner) and 3 (backup): kill both.
	_ = rt.Kill(rt.Place(2))
	_ = rt.Kill(rt.Place(3))
	var loadErr error
	err = rt.Finish(func(ctx *apgas.Ctx) {
		_, loadErr = s.Load(ctx, 2, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(loadErr, ErrDataLost) {
		t.Fatalf("want ErrDataLost, got %v", loadErr)
	}
	// Entry 1 (owner 1, backup 2): backup dead but owner alive — loadable.
	err = rt.Finish(func(ctx *apgas.Ctx) {
		data, err := s.Load(ctx, 1, 1)
		if err != nil {
			apgas.Throw(err)
		}
		if string(data) != "data-1" {
			apgas.Throw(fmt.Errorf("got %q", data))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Entry 4 (owner 4, backup wraps to 0): both alive — loadable.
	err = rt.Finish(func(ctx *apgas.Ctx) {
		if _, err := s.Load(ctx, 4, 4); err != nil {
			apgas.Throw(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplicateK1OwnerDeathIsLoudLoss pins the no-backup ablation's
// policy: replicate k=1 keeps only the owner's copy.
func TestReplicateK1OwnerDeathIsLoudLoss(t *testing.T) {
	rt := newRT(t, 3, apgas.WithStorePolicy(apgas.ReplicateStore(1)))
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	// Without the backup copy a single owner failure loses the entry.
	_ = rt.Kill(rt.Place(1))
	var loadErr error
	err = rt.Finish(func(ctx *apgas.Ctx) {
		_, loadErr = s.Load(ctx, 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(loadErr, ErrDataLost) {
		t.Fatalf("want ErrDataLost, got %v", loadErr)
	}
}

func TestNotFound(t *testing.T) {
	rt := newRT(t, 2)
	s, err := New(rt, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	var loadErr error
	err = rt.Finish(func(ctx *apgas.Ctx) {
		_, loadErr = s.Load(ctx, 42, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(loadErr, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", loadErr)
	}
	err = rt.Finish(func(ctx *apgas.Ctx) {
		if _, err := s.Load(ctx, 0, 7); err == nil {
			apgas.Throw(errors.New("bad owner index accepted"))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSaveFromNonMemberPanics(t *testing.T) {
	rt := newRT(t, 3)
	// Snapshot over places {1, 2} only.
	pg := apgas.PlaceGroup{rt.Place(1), rt.Place(2)}
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Finish(func(ctx *apgas.Ctx) {
		// ctx runs at place 0, not a member.
		s.Save(ctx, 0, []byte("x"))
	})
	if err == nil {
		t.Fatal("expected error from non-member save")
	}
}

func TestMetaAndBytes(t *testing.T) {
	rt := newRT(t, 3)
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetMeta([]byte("descriptor"))
	if string(s.Meta()) != "descriptor" {
		t.Error("meta roundtrip failed")
	}
	saveAll(t, rt, s, pg)
	n, err := s.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	// 3 entries of 6 bytes, each stored twice.
	if n != 2*3*len("data-0") {
		t.Errorf("Bytes = %d", n)
	}
}

func TestDestroyFreesStorage(t *testing.T) {
	rt := newRT(t, 3)
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	s.Destroy()
	// Loading after destroy panics (PLH gone) — wrapped into a finish error.
	err = rt.Finish(func(ctx *apgas.Ctx) {
		_, _ = s.Load(ctx, 0, 0)
	})
	if err == nil {
		t.Fatal("expected error after Destroy")
	}
	// Destroying again (or a nil snapshot) is safe.
	s.Destroy()
	var nilSnap *Snapshot
	nilSnap.Destroy()
}

// saveAllEncoded runs SaveEncoded at every place of s's group, each place
// saving three float64s distinct to its index.
func saveAllEncoded(t *testing.T, rt *apgas.Runtime, s *Snapshot) {
	t.Helper()
	err := apgas.ForEachPlace(rt, s.Group(), func(ctx *apgas.Ctx, idx int) {
		s.SaveEncoded(ctx, idx, func() *codec.Encoder {
			vals := []float64{float64(idx), 0, 3.5}
			enc := codec.NewEncoder(codec.SizeFloat64s(len(vals)))
			enc.PutFloat64s(vals)
			return &enc
		})
	})
	if err != nil {
		t.Fatalf("saveAllEncoded: %v", err)
	}
}

// TestDestroyRecyclesEachEntryOnce checks that Destroy returns every
// pooled payload to the codec pool exactly once: one buffer per entry
// under replication, whose owner and backup slots share it, and one per
// shard under erasure.
func TestDestroyRecyclesEachEntryOnce(t *testing.T) {
	for _, tc := range []struct {
		pol  apgas.StorePolicy
		puts uint64
	}{
		{apgas.ReplicateStore(2), 4},
		{apgas.ErasureStore(3, 1), 4 * 4},
	} {
		rt := newRT(t, 4, apgas.WithStorePolicy(tc.pol))
		s, err := New(rt, rt.World())
		if err != nil {
			t.Fatal(err)
		}
		saveAllEncoded(t, rt, s)
		_, _, puts0 := codec.PoolStats()
		s.Destroy()
		if _, _, puts := codec.PoolStats(); puts-puts0 != tc.puts {
			t.Errorf("%v: Destroy recycled %d buffers, want %d", tc.pol, puts-puts0, tc.puts)
		}
	}
}

func TestEmptyGroupRejected(t *testing.T) {
	rt := newRT(t, 2)
	if _, err := New(rt, nil); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestSinglePlaceSnapshotNoBackup(t *testing.T) {
	rt := newRT(t, 1)
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Finish(func(ctx *apgas.Ctx) {
		s.Save(ctx, 0, []byte("solo"))
		data, err := s.Load(ctx, 0, 0)
		if err != nil || string(data) != "solo" {
			apgas.Throw(fmt.Errorf("load: %q %v", data, err))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
