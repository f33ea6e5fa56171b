package snapshot

import (
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/obs"
)

// newInstrumentedRT is newRT with an obs registry attached.
func newInstrumentedRT(t *testing.T, places int, opts ...apgas.Option) (*apgas.Runtime, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	opts = append([]apgas.Option{apgas.WithPlaces(places), apgas.WithResilient(true), apgas.WithObs(reg)}, opts...)
	rt, err := apgas.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt, reg
}

// TestCRCFailureCounted checks that a corrupted owner replica increments
// the integrity counters and records the fallback to the backup replica,
// alongside the corruption trace event.
func TestCRCFailureCounted(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 3)
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	if got := reg.Counter("snapshot.saves").Value(); got != 3 {
		t.Errorf("snapshot.saves = %d, want 3", got)
	}
	if got := reg.Counter("snapshot.replicas.placed").Value(); got != 3 {
		t.Errorf("snapshot.replicas.placed = %d, want 3", got)
	}

	s.corruptAt(t, rt.Place(1), 1) // owner replica of entry 1
	err = rt.Finish(func(ctx *apgas.Ctx) {
		data, err := s.Load(ctx, 1, 1)
		if err != nil {
			apgas.Throw(err)
		}
		if string(data) != "data-1" {
			apgas.Throw(ErrCorrupt)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("snapshot.crc.failures").Value(); got != 1 {
		t.Errorf("snapshot.crc.failures = %d, want 1", got)
	}
	if got := reg.Counter("snapshot.replica.fallbacks").Value(); got != 1 {
		t.Errorf("snapshot.replica.fallbacks = %d, want 1", got)
	}
	corrupt := 0
	for _, ev := range reg.TraceEvents() {
		if ev.Name == "snapshot.replica.corrupt" {
			corrupt++
			if ev.A != 1 {
				t.Errorf("corrupt trace key = %d, want 1", ev.A)
			}
		}
	}
	if corrupt != 1 {
		t.Errorf("snapshot.replica.corrupt events = %d, want 1", corrupt)
	}
}

// TestLoadCountersSplitLocalRemote checks that loads are classified by
// whether the serving replica is place-local.
func TestLoadCountersSplitLocalRemote(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 3)
	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)
	// Each place loads its own entry: all owner replicas are local.
	err = apgas.ForEachPlace(rt, pg, func(ctx *apgas.Ctx, idx int) {
		if _, err := s.Load(ctx, idx, idx); err != nil {
			apgas.Throw(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("snapshot.loads").Value(); got != 3 {
		t.Errorf("snapshot.loads = %d, want 3", got)
	}
	if got := reg.Counter("snapshot.load.local").Value(); got != 3 {
		t.Errorf("snapshot.load.local = %d, want 3", got)
	}
	if got := reg.Counter("snapshot.load.remote").Value(); got != 0 {
		t.Errorf("snapshot.load.remote = %d, want 0", got)
	}
}

// TestSaveEncodeHistogram checks that snapshot.save.encode observes one
// duration per fragment SaveEncoded encodes.
func TestSaveEncodeHistogram(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 3)
	h := reg.Histogram("snapshot.save.encode")
	for want := int64(3); want <= 6; want += 3 {
		s, err := New(rt, rt.World())
		if err != nil {
			t.Fatal(err)
		}
		saveAllEncoded(t, rt, s)
		if got := h.Count(); got != want {
			t.Fatalf("snapshot.save.encode count = %d, want %d", got, want)
		}
		s.Destroy()
	}
}
