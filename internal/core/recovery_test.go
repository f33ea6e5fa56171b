package core_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/obs"
)

// failDuringRestore wraps an IterativeApp and kills one place the first
// time Restore is called, emulating a failure that strikes mid-recovery.
type failDuringRestore struct {
	*counterApp
	rt     *apgas.Runtime
	victim apgas.Place
	once   sync.Once
	fired  bool
}

func (a *failDuringRestore) Restore(newPG apgas.PlaceGroup, store *core.AppResilientStore, snapshotIter int64, rebalance bool) error {
	a.once.Do(func() {
		a.fired = true
		if err := a.rt.Kill(a.victim); err != nil {
			panic(err)
		}
	})
	return a.counterApp.Restore(newPG, store, snapshotIter, rebalance)
}

// traceCount counts the trace events of reg named name.
func traceCount(reg *obs.Registry, name string) int {
	n := 0
	for _, ev := range reg.TraceEvents() {
		if ev.Name == name {
			n++
		}
	}
	return n
}

// TestExecutorFailureDuringRestore drives the paper's worst case: a place
// dies, and while the framework is restoring onto the spare, a second
// place dies too. The first attempt must not consume the spare pool — the
// retry needs both spares to replace both victims.
func TestExecutorFailureDuringRestore(t *testing.T) {
	rt := newRT(t, 6)
	eng, err := chaos.New(rt, chaos.MustParse("kill(iter=6,place=1)"))
	if err != nil {
		t.Fatal(err)
	}
	exec, err := core.New(rt,
		core.WithCheckpointInterval(5),
		core.WithRestoreMode(core.ReplaceRedundant),
		core.WithSpares(2),
		core.WithChaos(eng),
	)
	if err != nil {
		t.Fatal(err)
	}
	if exec.ActiveGroup().Size() != 4 {
		t.Fatalf("active group = %v", exec.ActiveGroup())
	}
	// The second victim (place 3) is non-adjacent to the first (place 1)
	// in the active group, so the double in-memory snapshot storage still
	// covers every entry — adjacent double failures are genuine data loss.
	app := &failDuringRestore{
		counterApp: newCounterApp(t, rt, exec.ActiveGroup(), 16, 12),
		rt:         rt,
		victim:     rt.Place(3),
	}
	if err := exec.Run(app); err != nil {
		t.Fatal(err)
	}
	verify(t, app.counterApp)
	if got := eng.Signature(); got != "6@step:p1" {
		t.Errorf("chaos signature = %q, want one step kill of place 1", got)
	}
	if !app.fired {
		t.Fatal("mid-restore failure was never injected")
	}

	// Both victims replaced by the two spares, group size preserved. With
	// the old spare-consuming nextGroup the first (doomed) attempt ate a
	// spare, and the retry could only shrink.
	if app.pg.Size() != 4 {
		t.Fatalf("final group = %v, want size 4", app.pg)
	}
	for _, dead := range []apgas.Place{rt.Place(1), rt.Place(3)} {
		if app.pg.Contains(dead) {
			t.Errorf("dead %v still in final group %v", dead, app.pg)
		}
	}
	for _, spare := range []apgas.Place{rt.Place(4), rt.Place(5)} {
		if !app.pg.Contains(spare) {
			t.Errorf("spare %v missing from final group %v", spare, app.pg)
		}
	}

	m := exec.Metrics()
	if m.Restores != 1 {
		t.Errorf("Restores = %d, want 1", m.Restores)
	}
	if m.RestoreAttempts != 2 {
		t.Errorf("RestoreAttempts = %d, want 2", m.RestoreAttempts)
	}

	// Accounting: the phases are non-overlapping, so their sum is bounded
	// by the run's wall time even though the recovery took two attempts.
	// (The recursive recover charged the retry's wall time twice, breaking
	// this bound.)
	if sum := m.StepTime + m.CheckpointTime + m.RestoreTime; sum > m.Total {
		t.Errorf("StepTime+CheckpointTime+RestoreTime = %v > Total = %v", sum, m.Total)
	}
	if m.RestoreTime <= 0 {
		t.Errorf("RestoreTime = %v", m.RestoreTime)
	}

	// One trace event per attempt, one failed, one success.
	reg := exec.Registry()
	if n := traceCount(reg, "core.restore.attempt"); n != 2 {
		t.Errorf("core.restore.attempt events = %d, want 2", n)
	}
	if n := traceCount(reg, "core.restore.attempt.failed"); n != 1 {
		t.Errorf("core.restore.attempt.failed events = %d, want 1", n)
	}
	if n := traceCount(reg, "core.restore.success"); n != 1 {
		t.Errorf("core.restore.success events = %d, want 1", n)
	}
	// Each attempt is timed in its two phases, and they lie inside the
	// recovery's one duration.
	planned, applied := reg.Histogram("core.restore.plan"), reg.Histogram("core.restore.apply")
	if planned.Count() != 2 || applied.Count() != 2 {
		t.Errorf("core.restore.plan/apply observed %d/%d attempts, want 2/2", planned.Count(), applied.Count())
	}
	if sum := planned.Sum() + applied.Sum(); sum > reg.Histogram("core.restore.duration").Sum() {
		t.Errorf("plan+apply %v exceed core.restore.duration %v", sum, reg.Histogram("core.restore.duration").Sum())
	}
}

// TestExecutorSpareExhaustionDuringRestore kills the only spare while it is
// being drafted in: the retry finds the pool empty and falls back to
// shrink.
func TestExecutorSpareExhaustionDuringRestore(t *testing.T) {
	rt := newRT(t, 5)
	victim := rt.Place(1)
	exec, err := core.New(rt,
		core.WithCheckpointInterval(5),
		core.WithRestoreMode(core.ReplaceRedundant),
		core.WithFallback(core.Shrink),
		core.WithSpares(1),
		core.WithAfterStep(killAt(t, rt, victim, 6)),
	)
	if err != nil {
		t.Fatal(err)
	}
	app := &failDuringRestore{
		counterApp: newCounterApp(t, rt, exec.ActiveGroup(), 16, 12),
		rt:         rt,
		victim:     rt.Place(4), // the spare being drafted in
	}
	if err := exec.Run(app); err != nil {
		t.Fatal(err)
	}
	verify(t, app.counterApp)
	m := exec.Metrics()
	if m.RestoreAttempts != 2 || m.Restores != 1 {
		t.Errorf("RestoreAttempts = %d, Restores = %d, want 2, 1", m.RestoreAttempts, m.Restores)
	}
	// 4 active - 1 dead = 3 survivors; the dead spare covers nobody.
	if app.pg.Size() != 3 || app.pg.Contains(victim) || app.pg.Contains(rt.Place(4)) {
		t.Errorf("final group = %v, want the 3 survivors", app.pg)
	}
}

// TestExecutorElasticFailureDuringRestoreLeaksNoPlace kills a second place
// inside the first ReplaceElastic restore. The place created for that
// doomed attempt must be drafted by the retry, not orphaned: every live
// place ends up in the final group, and one place is created per death.
func TestExecutorElasticFailureDuringRestoreLeaksNoPlace(t *testing.T) {
	rt := newRT(t, 4)
	exec, err := core.New(rt,
		core.WithCheckpointInterval(5),
		core.WithRestoreMode(core.ReplaceElastic),
		core.WithAfterStep(killAt(t, rt, rt.Place(3), 6)),
	)
	if err != nil {
		t.Fatal(err)
	}
	app := &failDuringRestore{
		counterApp: newCounterApp(t, rt, exec.ActiveGroup(), 16, 12),
		rt:         rt,
		victim:     rt.Place(1),
	}
	if err := exec.Run(app); err != nil {
		t.Fatal(err)
	}
	verify(t, app.counterApp)
	if !app.fired {
		t.Fatal("mid-restore failure was never injected")
	}
	if m := exec.Metrics(); m.RestoreAttempts != 2 || m.Restores != 1 {
		t.Errorf("RestoreAttempts = %d, Restores = %d, want 2, 1", m.RestoreAttempts, m.Restores)
	}
	if live := rt.Live(rt.World()); live.Size() != app.pg.Size() {
		t.Errorf("%d live places %v for a final group of %d %v", live.Size(), live, app.pg.Size(), app.pg)
	}
	if got := rt.Stats().PlacesAdded; got != 2 {
		t.Errorf("PlacesAdded = %d for 2 deaths", got)
	}
	if app.pg.Size() != 4 || app.pg.Contains(rt.Place(1)) || app.pg.Contains(rt.Place(3)) {
		t.Errorf("final group = %v, want 4 places without the dead 1 and 3", app.pg)
	}
}

// TestExecutorRestoreAttemptExhaustion makes every restore attempt fail
// and checks the executor gives up after MaxRestores attempts instead of
// spinning.
func TestExecutorRestoreAttemptExhaustion(t *testing.T) {
	rt := newRT(t, 4)
	exec, err := core.New(rt,
		core.WithCheckpointInterval(2),
		core.WithRestoreMode(core.Shrink),
		core.WithMaxRestores(3),
		core.WithAfterStep(killAt(t, rt, rt.Place(2), 3)),
	)
	if err != nil {
		t.Fatal(err)
	}
	app := &alwaysDeadRestore{counterApp: newCounterApp(t, rt, exec.ActiveGroup(), 8, 10)}
	err = exec.Run(app)
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 restore attempts") {
		t.Fatalf("Run = %v, want attempt exhaustion", err)
	}
	if !errors.Is(err, core.ErrRestoreBudget) {
		t.Fatalf("Run = %v, want errors.Is ErrRestoreBudget", err)
	}
	m := exec.Metrics()
	if m.RestoreAttempts != 3 || m.Restores != 0 {
		t.Errorf("RestoreAttempts = %d, Restores = %d, want 3, 0", m.RestoreAttempts, m.Restores)
	}
}

// alwaysDeadRestore fails every Restore with a DeadPlaceError, as if a
// place died during each attempt.
type alwaysDeadRestore struct {
	*counterApp
}

func (a *alwaysDeadRestore) Restore(apgas.PlaceGroup, *core.AppResilientStore, int64, bool) error {
	return &apgas.DeadPlaceError{Place: apgas.Place{ID: 99}}
}
