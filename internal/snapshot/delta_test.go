package snapshot

import (
	"errors"
	"fmt"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/codec"
)

// segPayload is the per-place payload the delta tests save: distinct per
// owner, with the round number folded in so a new round changes the bytes.
func segPayload(idx, round int) []float64 {
	return []float64{float64(idx), float64(round), 3.5}
}

func encodeSeg(vals []float64) *codec.Encoder {
	enc := codec.NewEncoder(codec.SizeFloat64s(len(vals)))
	enc.PutFloat64s(vals)
	return &enc
}

// saveAllDelta runs SaveDelta at every place of s's group with the given
// version and round.
func saveAllDelta(t *testing.T, rt *apgas.Runtime, s, prev *Snapshot, ver uint64, round int) {
	t.Helper()
	err := apgas.ForEachPlace(rt, s.Group(), func(ctx *apgas.Ctx, idx int) {
		s.SaveDelta(ctx, idx, ver, prev, func() *codec.Encoder {
			return encodeSeg(segPayload(idx, round))
		})
	})
	if err != nil {
		t.Fatalf("saveAllDelta: %v", err)
	}
}

// loadSeg loads and decodes entry idx of s from the main activity.
func loadSeg(t *testing.T, rt *apgas.Runtime, s *Snapshot, idx int) []float64 {
	t.Helper()
	var vals []float64
	err := rt.Finish(func(ctx *apgas.Ctx) {
		data, err := s.Load(ctx, idx, idx)
		if err != nil {
			apgas.Throw(err)
		}
		vals, _, err = codec.Float64s(data)
		if err != nil {
			apgas.Throw(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestSnapshotDeltaVersionCarryRefcount drives the version-hit carry path
// and its refcount contract: a matching non-zero version shares the
// predecessor's entry without re-encoding, and the shared buffer is not
// recycled until the *last* snapshot referencing it is destroyed. A save
// with no predecessor is a full save and leaves every snapshot.delta.*
// counter at 0.
func TestSnapshotDeltaVersionCarryRefcount(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 3)
	pg := rt.World()
	s1, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAllDelta(t, rt, s1, nil, 1, 0) // no predecessor: a full save
	if got := reg.Counter("snapshot.delta.saved").Value(); got != 0 {
		t.Fatalf("delta.saved = %d, want 0", got)
	}
	if got := reg.Counter("snapshot.delta.carried").Value(); got != 0 {
		t.Fatalf("delta.carried = %d, want 0", got)
	}
	saveBytes0 := reg.Counter("snapshot.save.bytes").Value()

	// Second checkpoint with the same version: every entry must be carried
	// by reference. The encode callback throwing proves the version hit
	// never re-encodes.
	s2, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	err = apgas.ForEachPlace(rt, pg, func(ctx *apgas.Ctx, idx int) {
		s2.SaveDelta(ctx, idx, 1, s1, func() *codec.Encoder {
			apgas.Throw(errors.New("version hit must not re-encode"))
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("snapshot.delta.carried").Value(); got != 3 {
		t.Fatalf("delta.carried = %d, want 3", got)
	}
	if got := reg.Counter("snapshot.delta.bytes.skipped").Value(); got <= 0 {
		t.Fatalf("delta.bytes.skipped = %d, want > 0", got)
	}
	if got := reg.Counter("snapshot.save.bytes").Value(); got != saveBytes0 {
		t.Fatalf("save.bytes moved from %d to %d on a pure carry-forward", saveBytes0, got)
	}

	// Destroying the predecessor must not recycle buffers the successor
	// still references.
	_, _, puts0 := codec.PoolStats()
	s1.Destroy()
	if _, _, puts := codec.PoolStats(); puts != puts0 {
		t.Fatalf("destroying the carried-from snapshot recycled %d buffers", puts-puts0)
	}
	for idx := 0; idx < pg.Size(); idx++ {
		got := loadSeg(t, rt, s2, idx)
		want := segPayload(idx, 0)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("after predecessor destroy, entry %d = %v, want %v", idx, got, want)
			}
		}
	}
	// The last reference going away returns the three shared buffers.
	s2.Destroy()
	if _, _, puts := codec.PoolStats(); puts-puts0 != 3 {
		t.Fatalf("destroying the last snapshot recycled %d buffers, want 3", puts-puts0)
	}
}

// TestSnapshotDeltaContentFallbackAndMiss drives the two remaining
// SaveDelta outcomes: an unversioned entry with unchanged bytes is carried
// after the CRC comparison (and its scratch encode buffer returned to the
// pool), while changed bytes are saved fresh without disturbing the
// predecessor's payload.
func TestSnapshotDeltaContentFallbackAndMiss(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 3)
	pg := rt.World()
	s1, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAllDelta(t, rt, s1, nil, 0, 0)

	// Same bytes, no version bookkeeping: carried via the content hit, and
	// each place's scratch encode buffer goes back to the pool.
	_, _, puts0 := codec.PoolStats()
	s2, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAllDelta(t, rt, s2, s1, 0, 0)
	if got := reg.Counter("snapshot.delta.carried").Value(); got != 3 {
		t.Fatalf("delta.carried = %d, want 3", got)
	}
	if _, _, puts := codec.PoolStats(); puts-puts0 < 3 {
		t.Fatalf("content-hit scratch buffers returned = %d, want >= 3", puts-puts0)
	}

	// Changed bytes: saved fresh; the old checkpoint still serves the old
	// content (no aliasing between generations).
	s3, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAllDelta(t, rt, s3, s2, 0, 1)
	if got := reg.Counter("snapshot.delta.saved").Value(); got != 3 {
		t.Fatalf("delta.saved = %d, want 3 (the changed entries; the initial save had no predecessor)", got)
	}
	if got := loadSeg(t, rt, s3, 1); got[1] != 1 {
		t.Fatalf("new checkpoint entry = %v, want round 1", got)
	}
	if got := loadSeg(t, rt, s1, 1); got[1] != 0 {
		t.Fatalf("old checkpoint entry = %v, want round 0", got)
	}
	s1.Destroy()
	s2.Destroy()
	s3.Destroy()
}

// TestSnapshotDeltaDigestFallback checks the metadata-only Digest probe:
// it reports the save-time CRC and size, survives the owner's death via
// the backup replica, and never moves payload bytes.
func TestSnapshotDeltaDigestFallback(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 3)
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	want := []byte("data-1")
	probe := func() (uint32, int) {
		t.Helper()
		var (
			sum  uint32
			size int
		)
		err := rt.Finish(func(ctx *apgas.Ctx) {
			var err error
			sum, size, err = s.Digest(ctx, 1, 1)
			if err != nil {
				apgas.Throw(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return sum, size
	}
	loadBytes0 := reg.Counter("snapshot.load.bytes").Value()
	sum, size := probe()
	if sum != codec.Checksum(want) || size != len(want) {
		t.Fatalf("Digest = (%#x, %d), want (%#x, %d)", sum, size, codec.Checksum(want), len(want))
	}
	// The owner dying must not change the answer: the probe falls back to
	// the backup replica like Load does.
	if err := rt.Kill(rt.Place(1)); err != nil {
		t.Fatal(err)
	}
	sum2, size2 := probe()
	if sum2 != sum || size2 != size {
		t.Fatalf("Digest after owner death = (%#x, %d), want (%#x, %d)", sum2, size2, sum, size)
	}
	if got := reg.Counter("snapshot.digests").Value(); got != 2 {
		t.Fatalf("snapshot.digests = %d, want 2", got)
	}
	if got := reg.Counter("snapshot.load.bytes").Value(); got != loadBytes0 {
		t.Fatalf("Digest moved %d payload bytes, want 0", got-loadBytes0)
	}
	// An unknown key still reports ErrNotFound.
	err = rt.Finish(func(ctx *apgas.Ctx) {
		if _, _, err := s.Digest(ctx, 42, 0); !errors.Is(err, ErrNotFound) {
			apgas.Throw(fmt.Errorf("Digest(42) = %v, want ErrNotFound", err))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
