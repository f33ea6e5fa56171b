package core_test

import (
	"errors"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/snapshot"
)

// newStoreRT is newObsRT with a snapshot redundancy policy installed on
// the runtime, the way rgmlrun's -placement/-redundancy flags do it.
func newStoreRT(t *testing.T, places int, pol apgas.StorePolicy) *apgas.Runtime {
	t.Helper()
	rt, err := apgas.New(
		apgas.WithPlaces(places),
		apgas.WithResilient(true),
		apgas.WithObs(obs.NewRegistry()),
		apgas.WithStorePolicy(pol),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

// TestExecutorRepairClosesDroppedReplicaWindow is the satellite
// regression for the double-failure hole: a transient fault storm drops
// every backup replica of the iteration-2 checkpoint, the same commit's
// repair pass re-replicates them, and the subsequent owner death restores
// from the repaired copies instead of dying with ErrDataLost.
//
// The flake budget is exact: 4 entries × 4 put attempts = 16 transient
// faults, so every save-path put exhausts its retries (all 4 entries
// degrade) and the 17th injection — the first repair put — succeeds.
func TestExecutorRepairClosesDroppedReplicaWindow(t *testing.T) {
	rt := newObsRT(t, 4)
	eng, err := chaos.New(rt, chaos.MustParse("flake(iter=2,times=16);kill(place=1,iter=3)"))
	if err != nil {
		t.Fatal(err)
	}
	exec, err := core.New(rt,
		core.WithCheckpointInterval(2),
		core.WithRestoreMode(core.Shrink),
		core.WithChaos(eng),
	)
	if err != nil {
		t.Fatal(err)
	}
	app := newCounterApp(t, rt, exec.ActiveGroup(), 12, 6)
	if err := exec.Run(app); err != nil {
		t.Fatalf("run with repaired checkpoint: %v", err)
	}
	verify(t, app)

	reg := exec.Registry()
	if got := eng.Flakes(); got != 16 {
		t.Fatalf("flakes = %d, want 16 (exact retry-budget drain)", got)
	}
	if got := reg.Counter("snapshot.replicas.dropped").Value(); got != 4 {
		t.Fatalf("replicas.dropped = %d, want 4 (every entry degraded)", got)
	}
	// 6 = the 4 dropped-put heals at the iteration-2 commit, plus 2
	// death-driven heals at restore time (the entries that held a copy at
	// dead place 1 are re-replicated to a substitute before the run goes
	// on).
	if got := reg.Counter("snapshot.replicas.repaired").Value(); got != 6 {
		t.Fatalf("replicas.repaired = %d, want 6 (4 commit + 2 restore heals)", got)
	}
	if got := reg.Counter("core.store.repairs").Value(); got != 6 {
		t.Fatalf("core.store.repairs = %d, want 6", got)
	}
	if got := reg.Gauge("snapshot.replicas.degraded").Value(); got != 0 {
		t.Fatalf("degraded gauge = %d, want 0 at end of run", got)
	}
	if m := exec.Metrics(); m.Restores != 1 {
		t.Fatalf("Restores = %d, want 1", m.Restores)
	}
}

// TestExecutorDoubleKillSweep is the PR's acceptance matrix: a correlated
// kill of places 1 and 2 — an entry's owner and its adjacent backup — in
// the same inter-checkpoint window. k=2 (the paper's pair scheme) must
// fail loudly with ErrDataLost, never silently corrupt; k=3 and erasure
// (d=3,p=2) must recover and converge to the exact expected state.
func TestExecutorDoubleKillSweep(t *testing.T) {
	const schedule = "kill(iter=3,place=1,span=2)"
	run := func(t *testing.T, pol apgas.StorePolicy) (*counterApp, error) {
		rt := newStoreRT(t, 6, pol)
		eng, err := chaos.New(rt, chaos.MustParse(schedule))
		if err != nil {
			t.Fatal(err)
		}
		exec, err := core.New(rt,
			core.WithCheckpointInterval(2),
			core.WithRestoreMode(core.Shrink),
			core.WithChaos(eng),
		)
		if err != nil {
			t.Fatal(err)
		}
		app := newCounterApp(t, rt, exec.ActiveGroup(), 18, 10)
		runErr := exec.Run(app)
		if got, want := eng.Signature(), "3@step:p1,3@step:p2"; got != want {
			t.Fatalf("kill signature = %q, want %q", got, want)
		}
		return app, runErr
	}

	t.Run("k2-loud-loss", func(t *testing.T) {
		_, err := run(t, apgas.ReplicateStore(2))
		if !errors.Is(err, snapshot.ErrDataLost) {
			t.Fatalf("run err = %v, want ErrDataLost", err)
		}
	})
	t.Run("k3-survives", func(t *testing.T) {
		app, err := run(t, apgas.ReplicateStore(3))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		verify(t, app)
	})
	t.Run("erasure-survives", func(t *testing.T) {
		app, err := run(t, apgas.ErasureStore(3, 2))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		verify(t, app)
	})
}

// TestExecutorNoBackupRuns covers the DisableBackup ablation (k=1 via
// ReplicateStore(1)): a failure-free run places no replicas, and an owner
// death makes the next restore fail loudly with ErrDataLost rather than
// fabricating state.
func TestExecutorNoBackupRuns(t *testing.T) {
	t.Run("failure-free", func(t *testing.T) {
		rt := newStoreRT(t, 4, apgas.ReplicateStore(1))
		exec, err := core.New(rt, core.WithCheckpointInterval(2))
		if err != nil {
			t.Fatal(err)
		}
		app := newAccumApp(t, rt, exec.ActiveGroup(), 16, 8, false)
		if err := exec.Run(app); err != nil {
			t.Fatal(err)
		}
		verifyAccum(t, app)
		if got := exec.Registry().Counter("snapshot.replicas.placed").Value(); got != 0 {
			t.Fatalf("replicas = %d, want 0 with backups disabled", got)
		}
	})
	t.Run("owner-death-is-loud", func(t *testing.T) {
		rt := newStoreRT(t, 4, apgas.ReplicateStore(1))
		eng, err := chaos.New(rt, chaos.MustParse("kill(place=1,iter=3)"))
		if err != nil {
			t.Fatal(err)
		}
		exec, err := core.New(rt,
			core.WithCheckpointInterval(2),
			core.WithRestoreMode(core.Shrink),
			core.WithChaos(eng),
		)
		if err != nil {
			t.Fatal(err)
		}
		app := newAccumApp(t, rt, exec.ActiveGroup(), 16, 8, false)
		if err := exec.Run(app); !errors.Is(err, snapshot.ErrDataLost) {
			t.Fatalf("run err = %v, want ErrDataLost (no redundancy to recover from)", err)
		}
	})
}

// TestExecutorPartialRestoreWithSpare runs the spare-replace partial
// restore under a non-default policy: the dead place's fragments are
// restored onto the spare while survivors keep their state, and the run
// converges exactly.
func TestExecutorPartialRestoreWithSpare(t *testing.T) {
	rt := newStoreRT(t, 5, apgas.ReplicateStore(3))
	eng, err := chaos.New(rt, chaos.MustParse("kill(place=1,iter=3)"))
	if err != nil {
		t.Fatal(err)
	}
	exec, err := core.New(rt,
		core.WithCheckpointInterval(2),
		core.WithRestoreMode(core.ReplaceRedundant),
		core.WithSpares(1),
		core.WithChaos(eng),
	)
	if err != nil {
		t.Fatal(err)
	}
	app := newAccumApp(t, rt, exec.ActiveGroup(), 16, 8, false)
	if err := exec.Run(app); err != nil {
		t.Fatal(err)
	}
	verifyAccum(t, app)
	if m := exec.Metrics(); m.Restores != 1 {
		t.Fatalf("Restores = %d, want 1", m.Restores)
	}
	if got := app.pg.Size(); got != 4 {
		t.Fatalf("final group size = %d, want 4 (spare replaced the victim)", got)
	}
}

// TestExecutorSinglePlaceRun pins the size-1 corner at the executor
// layer: a one-place world checkpoints and finishes under any policy (all
// of which clamp to a single local copy).
func TestExecutorSinglePlaceRun(t *testing.T) {
	for _, pol := range []apgas.StorePolicy{
		{},
		apgas.ReplicateStore(3),
		apgas.ErasureStore(3, 2),
	} {
		rt := newStoreRT(t, 1, pol)
		exec, err := core.New(rt, core.WithCheckpointInterval(2))
		if err != nil {
			t.Fatal(err)
		}
		app := newAccumApp(t, rt, exec.ActiveGroup(), 6, 6, false)
		if err := exec.Run(app); err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		verifyAccum(t, app)
		if got := exec.Registry().Counter("snapshot.replicas.placed").Value(); got != 0 {
			t.Fatalf("policy %v: replicas = %d, want 0 on one place", pol, got)
		}
	}
}
