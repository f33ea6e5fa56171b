package snapshot

import (
	"errors"
	"fmt"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/codec"
)

// TestSnapshotDigestFallback checks the metadata-only Digest probe that
// partial restore validates survivor state with:
// it reports the save-time CRC and size, survives the owner's death via
// the backup replica, and never moves payload bytes.
func TestSnapshotDigestFallback(t *testing.T) {
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
