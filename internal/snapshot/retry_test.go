package snapshot

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
)

// flakyInjector fails the first `failures` replica puts it sees and lets
// everything else through. It stands in for the chaos engine's flake rules
// so the snapshot package can test its retry loop without importing chaos.
type flakyInjector struct {
	mu       sync.Mutex
	failures int
	seen     int
}

func (fi *flakyInjector) Fault(point string, subject apgas.Place) error {
	if point != apgas.FaultPointReplica {
		return nil
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.seen++
	if fi.failures != 0 {
		if fi.failures > 0 {
			fi.failures--
		}
		return errors.New("injected transient replica failure")
	}
	return nil
}

// TestReplicaRetryLandsBackupAfterTransientFaults checks that a put that
// flakes a few times still lands the backup replica, so a later owner
// failure is survivable exactly as if nothing had been injected.
func TestReplicaRetryLandsBackupAfterTransientFaults(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 3)
	inj := &flakyInjector{failures: 2}
	rt.SetInjector(inj)
	defer rt.SetInjector(nil)

	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg)

	if got := reg.Counter("snapshot.replicas.retries").Value(); got != 2 {
		t.Errorf("snapshot.replicas.retries = %d, want 2", got)
	}
	if got := reg.Counter("snapshot.replicas.dropped").Value(); got != 0 {
		t.Errorf("snapshot.replicas.dropped = %d, want 0", got)
	}

	// The owner of entry 1 dies; its backup (retried into place 2) serves.
	if err := rt.Kill(rt.Place(1)); err != nil {
		t.Fatal(err)
	}
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
}

// TestReplicaRetryExhaustionDegradesToOwnerOnly checks the graceful
// degradation path: a put whose retry budget is exhausted drops the backup
// (counted and traced) but the checkpoint still completes and owner copies
// still load.
func TestReplicaRetryExhaustionDegradesToOwnerOnly(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 3)
	rt.SetInjector(&flakyInjector{failures: -1}) // never recovers
	defer rt.SetInjector(nil)

	pg := rt.World()
	s, err := New(rt, pg)
	if err != nil {
		t.Fatal(err)
	}
	saveAll(t, rt, s, pg) // must not fail: degradation, not checkpoint abort

	if got := reg.Counter("snapshot.replicas.dropped").Value(); got != 3 {
		t.Errorf("snapshot.replicas.dropped = %d, want 3", got)
	}
	// Four attempts per put: three retries each before giving up.
	if got := reg.Counter("snapshot.replicas.retries").Value(); got != 9 {
		t.Errorf("snapshot.replicas.retries = %d, want 9", got)
	}
	dropTraces := 0
	for _, ev := range reg.TraceEvents() {
		if ev.Name == "snapshot.replica.dropped" {
			dropTraces++
		}
	}
	if dropTraces != 3 {
		t.Errorf("snapshot.replica.dropped traces = %d, want 3", dropTraces)
	}

	// Owner copies are intact.
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

	// The dropped puts are tracked as degraded entries awaiting repair.
	if got := s.DegradedEntries(); got != 3 {
		t.Errorf("DegradedEntries = %d, want 3", got)
	}
	if got := reg.Gauge("snapshot.replicas.degraded").Value(); got != 3 {
		t.Errorf("snapshot.replicas.degraded = %d, want 3", got)
	}

	// A degraded entry does not survive its owner — but because the store
	// knows the replica was dropped, the loss surfaces loudly as
	// ErrDataLost, never as a silent missing key.
	if err := rt.Kill(rt.Place(1)); err != nil {
		t.Fatal(err)
	}
	err = rt.Finish(func(ctx *apgas.Ctx) {
		if _, err := s.Load(ctx, 1, 1); !errors.Is(err, ErrDataLost) {
			apgas.Throw(fmt.Errorf("want ErrDataLost, got %v", err))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
