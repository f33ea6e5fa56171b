package core_test

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/dist"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/snapshot"
)

// deltaApp is counterApp plus an immutable input: each step adds x to v
// element-wise, so after k successful iterations v = k*x. Checkpoints save
// v with plain Save every interval, and x either with plain Save too (the
// worst case for full checkpointing, the carry-forward case for delta) or
// with SaveReadOnly.
type deltaApp struct {
	rt       *apgas.Runtime
	pg       apgas.PlaceGroup
	iter     int64
	maxIters int64
	v, x     *dist.DistVector
	readOnly bool
}

func xVal(i int) float64 { return float64(i%7) + 1 }

// newObsRT is newRT with an observability registry attached to the
// runtime, so snapshot- and dist-layer counters (which record into
// apgas.Config.Obs) are visible through exec.Registry().
func newObsRT(t *testing.T, places int) *apgas.Runtime {
	t.Helper()
	rt, err := apgas.New(apgas.WithPlaces(places), apgas.WithResilient(true), apgas.WithObs(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

func newDeltaApp(t *testing.T, rt *apgas.Runtime, pg apgas.PlaceGroup, n int, iters int64, readOnly bool) *deltaApp {
	t.Helper()
	v, err := dist.MakeDistVector(rt, n, pg)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dist.MakeDistVector(rt, n, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Init(func(i int) float64 { return xVal(i) }); err != nil {
		t.Fatal(err)
	}
	return &deltaApp{rt: rt, pg: pg.Clone(), maxIters: iters, v: v, x: x, readOnly: readOnly}
}

func (a *deltaApp) IsFinished() bool { return a.iter >= a.maxIters }

func (a *deltaApp) Step() error {
	err := a.v.ZipApplyLocal(a.x, func(dst, src la.Vector, off int) {
		for i := range dst {
			dst[i] += src[i]
		}
	})
	if err != nil {
		return err
	}
	a.iter++
	return nil
}

func (a *deltaApp) Checkpoint(store *core.AppResilientStore) error {
	if err := store.StartNewSnapshot(); err != nil {
		return err
	}
	if a.readOnly {
		if err := store.SaveReadOnly(a.x); err != nil {
			return err
		}
	} else if err := store.Save(a.x); err != nil {
		return err
	}
	if err := store.Save(a.v); err != nil {
		return err
	}
	return store.Commit()
}

func (a *deltaApp) Restore(newPG apgas.PlaceGroup, store *core.AppResilientStore, snapshotIter int64, rebalance bool) error {
	if err := a.v.Remake(newPG); err != nil {
		return err
	}
	if err := a.x.Remake(newPG); err != nil {
		return err
	}
	if err := store.Restore(); err != nil {
		return err
	}
	a.pg = newPG.Clone()
	a.iter = snapshotIter
	return nil
}

// weights gathers v for verification.
func (a *deltaApp) weights(t *testing.T) la.Vector {
	t.Helper()
	got, err := a.v.ToVector()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// verifyDelta checks every element of v equals maxIters * x[i].
func verifyDelta(t *testing.T, a *deltaApp) {
	t.Helper()
	for i, got := range a.weights(t) {
		if want := float64(a.maxIters) * xVal(i); got != want {
			t.Fatalf("element %d = %v, want %v", i, got, want)
		}
	}
}

// TestExecutorDeltaCarryForwardChaosCommitKill runs the same
// failure-and-recovery workload twice — full checkpointing and delta
// checkpointing, each with a chaos kill inside a commit window between two
// delta commits — and checks that delta (a) carries the unchanged input
// forward instead of re-shipping it, (b) ships strictly fewer checkpoint
// bytes, and (c) converges to bit-identical final state.
func TestExecutorDeltaCarryForwardChaosCommitKill(t *testing.T) {
	run := func(t *testing.T, delta bool) (la.Vector, *obs.Registry) {
		rt := newObsRT(t, 5)
		eng, err := chaos.New(rt, chaos.MustParse("kill(point=commit,iter=6,place=1)"))
		if err != nil {
			t.Fatal(err)
		}
		exec, err := core.New(rt,
			core.WithCheckpointInterval(3),
			core.WithRestoreMode(core.ReplaceRedundant),
			core.WithSpares(1),
			core.WithDelta(delta),
			core.WithChaos(eng),
		)
		if err != nil {
			t.Fatal(err)
		}
		app := newDeltaApp(t, rt, exec.ActiveGroup(), 16, 12, false)
		if err := exec.Run(app); err != nil {
			t.Fatal(err)
		}
		verifyDelta(t, app)
		if got := exec.Metrics().Restores; got != 1 {
			t.Fatalf("Restores = %d, want 1", got)
		}
		if len(eng.Kills()) != 1 {
			t.Fatalf("kills = %v, want one commit kill", eng.Kills())
		}
		return app.weights(t), exec.Registry()
	}

	wFull, regFull := run(t, false)
	wDelta, regDelta := run(t, true)

	if len(wFull) != len(wDelta) {
		t.Fatalf("weight lengths differ: %d vs %d", len(wFull), len(wDelta))
	}
	for i := range wFull {
		if math.Float64bits(wFull[i]) != math.Float64bits(wDelta[i]) {
			t.Fatalf("element %d differs bitwise: full %v, delta %v", i, wFull[i], wDelta[i])
		}
	}

	// Full mode never exercises the delta machinery.
	if got := regFull.Counter("snapshot.delta.carried").Value(); got != 0 {
		t.Errorf("full-mode delta.carried = %d, want 0", got)
	}
	// Delta mode carries the unchanged input across commits (the kill in
	// the middle does not break the chain: after the restore the next
	// delta commit carries forward from the just-restored checkpoint).
	if got := regDelta.Counter("snapshot.delta.carried").Value(); got < 2 {
		t.Errorf("delta.carried = %d, want >= 2", got)
	}
	if got := regDelta.Counter("snapshot.delta.bytes.skipped").Value(); got <= 0 {
		t.Errorf("delta.bytes.skipped = %d, want > 0", got)
	}
	if got := regDelta.Counter("core.store.delta_saves").Value(); got <= 0 {
		t.Errorf("core.store.delta_saves = %d, want > 0", got)
	}
	full := regFull.Counter("snapshot.save.bytes").Value()
	del := regDelta.Counter("snapshot.save.bytes").Value()
	if del >= full {
		t.Errorf("delta shipped %d checkpoint bytes, full %d: want a reduction", del, full)
	}

	// Both runs recover through the partial path (it is unconditional on a
	// non-empty dead set): one place lost out of four, two objects.
	for name, reg := range map[string]*obs.Registry{"full": regFull, "delta": regDelta} {
		kept := reg.Counter("dist.restore.partial.kept").Value()
		loaded := reg.Counter("dist.restore.partial.loaded").Value()
		if kept+loaded != 8 {
			t.Errorf("%s: partial kept %d + loaded %d = %d, want 8 segments", name, kept, loaded, kept+loaded)
		}
		// The immutable input's three surviving segments always validate.
		if kept < 3 {
			t.Errorf("%s: partial kept = %d, want >= 3", name, kept)
		}
		if loaded < 1 {
			t.Errorf("%s: partial loaded = %d, want >= 1", name, loaded)
		}
	}
}

// TestExecutorPartialRestoreLoadsOnlyDeadOwner pins the partial-restore
// traffic exactly: a failure between checkpoints rolls v back (its
// survivors diverged from the checkpoint and must re-load) while the
// immutable x is re-loaded only at the replacement place — and the
// snapshot store serves exactly those five segment payloads.
func TestExecutorPartialRestoreLoadsOnlyDeadOwner(t *testing.T) {
	rt := newObsRT(t, 5)
	victim := rt.Place(1)
	exec, err := core.New(rt,
		core.WithCheckpointInterval(5),
		core.WithRestoreMode(core.ReplaceRedundant),
		core.WithSpares(1),
		core.WithAfterStep(killAt(t, rt, victim, 7)),
	)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	app := newDeltaApp(t, rt, exec.ActiveGroup(), n, 12, false)
	if err := exec.Run(app); err != nil {
		t.Fatal(err)
	}
	verifyDelta(t, app)
	if got := exec.Metrics().Restores; got != 1 {
		t.Fatalf("Restores = %d, want 1", got)
	}

	reg := exec.Registry()
	// Remake retains 3 surviving segments for each of the two vectors.
	if got := reg.Counter("dist.remake.segments.retained").Value(); got != 6 {
		t.Errorf("remake.segments.retained = %d, want 6", got)
	}
	// x: 3 survivors validate against the digest and are kept; its dead
	// segment loads. v: all 4 segments load (survivors advanced past the
	// checkpoint, so their digests mismatch).
	if got := reg.Counter("dist.restore.partial.kept").Value(); got != 3 {
		t.Errorf("partial.kept = %d, want 3", got)
	}
	if got := reg.Counter("dist.restore.partial.loaded").Value(); got != 5 {
		t.Errorf("partial.loaded = %d, want 5", got)
	}
	// Byte-exact: five segment payloads of n/4 elements each crossed the
	// store; the three kept segments cost zero load bytes.
	segBytes := int64(codec.SizeFloat64s(n / 4))
	if got := reg.Counter("snapshot.load.bytes").Value(); got != 5*segBytes {
		t.Errorf("snapshot.load.bytes = %d, want %d (5 segments)", got, 5*segBytes)
	}
	if got := reg.Counter("dist.restore.partial.bytes.kept").Value(); got != 3*segBytes {
		t.Errorf("partial.bytes.kept = %d, want %d (3 segments)", got, 3*segBytes)
	}
}

// snapshotCounter is a read-only input that counts how often it is
// snapshotted in full.
type snapshotCounter struct {
	*dist.DistVector
	makes atomic.Int32
}

func (c *snapshotCounter) MakeSnapshot() (*snapshot.Snapshot, error) {
	c.makes.Add(1)
	return c.DistVector.MakeSnapshot()
}

// readOnceApp is deltaApp saving x read-only through a snapshotCounter.
type readOnceApp struct {
	*deltaApp
	x *snapshotCounter
}

func newReadOnceApp(t *testing.T, rt *apgas.Runtime, pg apgas.PlaceGroup, iters int64) *readOnceApp {
	a := newDeltaApp(t, rt, pg, 16, iters, true)
	return &readOnceApp{deltaApp: a, x: &snapshotCounter{DistVector: a.x}}
}

func (a *readOnceApp) Checkpoint(store *core.AppResilientStore) error {
	if err := store.StartNewSnapshot(); err != nil {
		return err
	}
	if err := store.SaveReadOnly(a.x); err != nil {
		return err
	}
	if err := store.Save(a.v); err != nil {
		return err
	}
	return store.Commit()
}

// TestExecutorReadOnlyInputSnapshottedOnce is the regression test for the
// stale read-only replica bug, and pins how it is healed: the victims are
// adjacent in the original group, so a cached read-only snapshot of x left
// as it was after the first failure would lose both replicas of one entry
// at the second. Repair re-replicates the entries the dead place held
// instead of re-taking the snapshot, so x is snapshotted once in the
// whole run.
func TestExecutorReadOnlyInputSnapshottedOnce(t *testing.T) {
	rt := newObsRT(t, 4)
	var once1, once2 sync.Once
	hook := func(iter int64) {
		if iter == 4 {
			once1.Do(func() { _ = rt.Kill(rt.Place(1)) })
		}
		if iter == 9 {
			once2.Do(func() { _ = rt.Kill(rt.Place(2)) })
		}
	}
	exec, err := core.New(rt,
		core.WithCheckpointInterval(3),
		core.WithRestoreMode(core.Shrink),
		core.WithAfterStep(hook),
	)
	if err != nil {
		t.Fatal(err)
	}
	app := newReadOnceApp(t, rt, exec.ActiveGroup(), 12)
	if err := exec.Run(app); err != nil {
		t.Fatal(err)
	}
	verifyDelta(t, app.deltaApp)
	if m := exec.Metrics(); m.Restores != 2 {
		t.Errorf("Restores = %d, want 2", m.Restores)
	}
	if app.pg.Size() != 2 {
		t.Errorf("final group = %v, want 2 survivors", app.pg)
	}
	if got := app.x.makes.Load(); got != 1 {
		t.Errorf("x snapshotted %d times, want once", got)
	}
	reg := exec.Registry()
	if got := reg.Counter("snapshot.replicas.repaired").Value(); got <= 0 {
		t.Errorf("replicas.repaired = %d, want > 0", got)
	}
	if got := reg.Counter("core.store.readonly_reuses").Value(); got <= 0 {
		t.Errorf("readonly_reuses = %d, want > 0", got)
	}
}

// TestExecutorErasureToleranceSurvivesReplacement pins that a replacement
// restores a read-only snapshot's full width: under ErasureStore(3,2) it
// tolerates two failures, and after the first failure's replacement it
// must still tolerate two in one window. Healing the dead slot in place
// leaves each entry four shards over four live places, and the later
// double kill then loses every entry of x; moving the slot onto the
// replacement gives each entry its fifth shard back.
func TestExecutorErasureToleranceSurvivesReplacement(t *testing.T) {
	for _, mode := range []core.RestoreMode{core.ReplaceRedundant, core.ReplaceElastic} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := newStoreRT(t, 7, apgas.ErasureStore(3, 2))
			var once1, once2 sync.Once
			hook := func(iter int64) {
				if iter == 2 {
					once1.Do(func() { _ = rt.Kill(rt.Place(1)) })
				}
				if iter == 7 {
					once2.Do(func() {
						_ = rt.Kill(rt.Place(2))
						_ = rt.Kill(rt.Place(3))
					})
				}
			}
			exec, err := core.New(rt,
				core.WithCheckpointInterval(3),
				core.WithRestoreMode(mode),
				core.WithSpares(2),
				core.WithAfterStep(hook),
			)
			if err != nil {
				t.Fatal(err)
			}
			app := newReadOnceApp(t, rt, exec.ActiveGroup(), 12)
			if err := exec.Run(app); err != nil {
				t.Fatal(err)
			}
			verifyDelta(t, app.deltaApp)
			if m := exec.Metrics(); m.Restores != 2 {
				t.Errorf("Restores = %d, want 2", m.Restores)
			}
			if got := app.x.makes.Load(); got != 1 {
				t.Errorf("x snapshotted %d times, want once", got)
			}
			if got := exec.Registry().Counter("snapshot.slots.rehomed").Value(); got <= 0 {
				t.Errorf("slots.rehomed = %d, want > 0", got)
			}
		})
	}
}
