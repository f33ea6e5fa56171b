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

// accumApp is counterApp plus an immutable input: each step adds x to v
// element-wise, so after k successful iterations v = k*x. Checkpoints save
// v with plain Save every interval, and x either with plain Save too or
// with SaveReadOnly.
type accumApp struct {
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

func newAccumApp(t *testing.T, rt *apgas.Runtime, pg apgas.PlaceGroup, n int, iters int64, readOnly bool) *accumApp {
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
	return &accumApp{rt: rt, pg: pg.Clone(), maxIters: iters, v: v, x: x, readOnly: readOnly}
}

func (a *accumApp) IsFinished() bool { return a.iter >= a.maxIters }

func (a *accumApp) Step() error {
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

func (a *accumApp) Checkpoint(store *core.AppResilientStore) error {
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

func (a *accumApp) Restore(newPG apgas.PlaceGroup, store *core.AppResilientStore, snapshotIter int64, rebalance bool) error {
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
func (a *accumApp) weights(t *testing.T) la.Vector {
	t.Helper()
	got, err := a.v.ToVector()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// verifyAccum checks every element of v equals maxIters * x[i].
func verifyAccum(t *testing.T, a *accumApp) {
	t.Helper()
	for i, got := range a.weights(t) {
		if want := float64(a.maxIters) * xVal(i); got != want {
			t.Fatalf("element %d = %v, want %v", i, got, want)
		}
	}
}

// TestExecutorChaosCommitKill kills a place inside the iteration-6 commit
// window and checks that the run converges to the failure-free run's bits,
// restoring through the partial path: the immutable input's survivor
// segments validate against the commit and stay, while the step that
// found the death already advanced v's survivors, so all of v loads.
func TestExecutorChaosCommitKill(t *testing.T) {
	run := func(t *testing.T, schedule string) (la.Vector, *core.Executor) {
		rt := newObsRT(t, 5)
		opts := []core.Option{
			core.WithCheckpointInterval(3),
			core.WithRestoreMode(core.ReplaceRedundant),
			core.WithSpares(1),
		}
		var eng *chaos.Engine
		if schedule != "" {
			var err error
			if eng, err = chaos.New(rt, chaos.MustParse(schedule)); err != nil {
				t.Fatal(err)
			}
			opts = append(opts, core.WithChaos(eng))
		}
		exec, err := core.New(rt, opts...)
		if err != nil {
			t.Fatal(err)
		}
		app := newAccumApp(t, rt, exec.ActiveGroup(), 16, 12, false)
		if err := exec.Run(app); err != nil {
			t.Fatal(err)
		}
		verifyAccum(t, app)
		if eng != nil && len(eng.Kills()) != 1 {
			t.Fatalf("kills = %v, want one commit kill", eng.Kills())
		}
		return app.weights(t), exec
	}

	wFree, _ := run(t, "")
	wKill, exec := run(t, "kill(point=commit,iter=6,place=1)")
	for i := range wFree {
		if math.Float64bits(wFree[i]) != math.Float64bits(wKill[i]) {
			t.Fatalf("element %d differs bitwise: failure-free %v, recovered %v", i, wFree[i], wKill[i])
		}
	}
	if got := exec.Metrics().Restores; got != 1 {
		t.Fatalf("Restores = %d, want 1", got)
	}
	reg := exec.Registry()
	if got := reg.Counter("dist.restore.partial.kept").Value(); got != 3 {
		t.Errorf("partial.kept = %d, want 3 (x's survivors)", got)
	}
	if got := reg.Counter("dist.restore.partial.loaded").Value(); got != 5 {
		t.Errorf("partial.loaded = %d, want 5 (x's dead segment and all of v)", got)
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
	app := newAccumApp(t, rt, exec.ActiveGroup(), n, 12, false)
	if err := exec.Run(app); err != nil {
		t.Fatal(err)
	}
	verifyAccum(t, app)
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

// readOnceApp is accumApp saving x read-only through a snapshotCounter.
type readOnceApp struct {
	*accumApp
	x *snapshotCounter
}

func newReadOnceApp(t *testing.T, rt *apgas.Runtime, pg apgas.PlaceGroup, iters int64) *readOnceApp {
	a := newAccumApp(t, rt, pg, 16, iters, true)
	return &readOnceApp{accumApp: a, x: &snapshotCounter{DistVector: a.x}}
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
	verifyAccum(t, app.accumApp)
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
			verifyAccum(t, app.accumApp)
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
