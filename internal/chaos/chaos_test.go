package chaos

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/apgas/transport/local"
	"github.com/rgml/rgml/internal/obs"
)

func newTestRuntime(t *testing.T, places int) *apgas.Runtime {
	t.Helper()
	rt, err := apgas.New(
		apgas.WithPlaces(places),
		apgas.WithResilient(true),
		apgas.WithObs(obs.NewRegistry()),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestEngineRequiresResilientRuntime(t *testing.T) {
	rt, err := apgas.New(apgas.WithPlaces(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if _, err := New(rt, MustParse("kill(place=1)")); err == nil {
		t.Fatal("expected error on non-resilient runtime")
	}
}

func TestPinnedKillFiresOnceAtIteration(t *testing.T) {
	rt := newTestRuntime(t, 4)
	e, err := New(rt, MustParse("kill(place=2,iter=3)"))
	if err != nil {
		t.Fatal(err)
	}
	e.Arm()
	for iter := int64(0); iter < 6; iter++ {
		e.Advance(iter)
		if err := e.At(PointStep); err != nil {
			t.Fatal(err)
		}
	}
	kills := e.Kills()
	if len(kills) != 1 {
		t.Fatalf("got %d kills, want 1 (%v)", len(kills), kills)
	}
	if kills[0].Iteration != 3 || kills[0].Place.ID != 2 || kills[0].Point != PointStep {
		t.Fatalf("unexpected kill %+v", kills[0])
	}
	if !rt.IsDead(apgas.Place{ID: 2}) {
		t.Fatal("place 2 should be dead")
	}
	if got := e.Signature(); got != "3@step:p2" {
		t.Fatalf("signature %q", got)
	}
}

func TestDisarmedEngineIsInert(t *testing.T) {
	rt := newTestRuntime(t, 3)
	e, err := New(rt, MustParse("kill(place=1)"))
	if err != nil {
		t.Fatal(err)
	}
	e.Advance(0)
	if err := e.At(PointStep); err != nil {
		t.Fatal(err)
	}
	if len(e.Kills()) != 0 {
		t.Fatal("disarmed engine killed a place")
	}
	// Runtime-level points are equally inert while disarmed.
	if err := rt.InjectFault(apgas.FaultPointSpawn, rt.Place(1)); err != nil {
		t.Fatal(err)
	}
	if len(e.Kills()) != 0 || e.Fired() != 0 {
		t.Fatal("disarmed engine fired via runtime point")
	}
}

func TestBurstKillsKPlaces(t *testing.T) {
	rt := newTestRuntime(t, 6)
	e, err := New(rt, MustParse("burst(k=3,iter=2)"), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	e.Arm()
	e.Advance(2)
	if err := e.At(PointStep); err != nil {
		t.Fatal(err)
	}
	kills := e.Kills()
	if len(kills) != 3 {
		t.Fatalf("got %d kills, want 3", len(kills))
	}
	seen := map[int]bool{}
	for _, k := range kills {
		if k.Place.ID == 0 {
			t.Fatal("burst killed place zero")
		}
		seen[k.Place.ID] = true
	}
	if len(seen) != 3 {
		t.Fatalf("burst revisited a victim: %v", kills)
	}
}

func TestBurstClampsToLivePopulation(t *testing.T) {
	rt := newTestRuntime(t, 3)
	e, err := New(rt, MustParse("burst(k=10,iter=0)"))
	if err != nil {
		t.Fatal(err)
	}
	e.Arm()
	e.Advance(0)
	if err := e.At(PointStep); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Kills()); got != 2 {
		t.Fatalf("got %d kills, want 2 (all non-zero places)", got)
	}
}

func TestRandomVictimDeterministicAcrossEngines(t *testing.T) {
	sig := func() string {
		rt := newTestRuntime(t, 8)
		e, err := New(rt, MustParse("kill(iter=1);kill(iter=3);kill(iter=5)"), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		e.Arm()
		for iter := int64(0); iter < 8; iter++ {
			e.Advance(iter)
			_ = e.At(PointStep)
		}
		return e.Signature()
	}
	a, b := sig(), sig()
	if a != b || a == "" {
		t.Fatalf("kill sequences diverged: %q vs %q", a, b)
	}
}

func TestSeedChangesRandomVictims(t *testing.T) {
	sig := func(seed uint64) string {
		rt := newTestRuntime(t, 16)
		e, err := New(rt, MustParse("burst(k=4,iter=0)"), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		e.Arm()
		e.Advance(0)
		_ = e.At(PointStep)
		return e.Signature()
	}
	if sig(1) == sig(99) {
		t.Log("warning: two seeds drew the same burst; retrying with a third")
		if sig(1) == sig(12345) {
			t.Fatal("victim selection ignores the seed")
		}
	}
}

func TestFlakeInjectsTransientFault(t *testing.T) {
	rt := newTestRuntime(t, 2)
	e, err := New(rt, MustParse("flake(times=2)"))
	if err != nil {
		t.Fatal(err)
	}
	e.Arm()
	for i := 0; i < 2; i++ {
		err := rt.InjectFault(apgas.FaultPointReplica, rt.Place(1))
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("fault %d: got %v, want ErrInjected", i, err)
		}
	}
	// Budget of 2 exhausted: the third replica write is clean.
	if err := rt.InjectFault(apgas.FaultPointReplica, rt.Place(1)); err != nil {
		t.Fatalf("after budget: %v", err)
	}
	if e.Flakes() != 2 {
		t.Fatalf("Flakes() = %d, want 2", e.Flakes())
	}
	if len(e.Kills()) != 0 {
		t.Fatal("flake rule killed a place")
	}
}

func TestProbabilisticRuleRespectsBudgetAndSeed(t *testing.T) {
	fires := func(seed uint64) int {
		rt := newTestRuntime(t, 4)
		e, err := New(rt, MustParse("flake(prob=0.5,times=-1)"), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		e.Arm()
		n := 0
		for i := 0; i < 64; i++ {
			if rt.InjectFault(apgas.FaultPointReplica, rt.Place(1)) != nil {
				n++
			}
		}
		return n
	}
	a, b := fires(5), fires(5)
	if a != b {
		t.Fatalf("same seed, different firing counts: %d vs %d", a, b)
	}
	if a == 0 || a == 64 {
		t.Fatalf("prob=0.5 fired %d/64 times; decision stream looks broken", a)
	}
}

func TestIterationPinnedRuleNeverFiresOutsideRun(t *testing.T) {
	rt := newTestRuntime(t, 3)
	e, err := New(rt, MustParse("kill(place=1,iter=0,point=spawn)"))
	if err != nil {
		t.Fatal(err)
	}
	e.Arm()
	// The engine's clock is -1 until an executor advances it, so spawns
	// during application construction cannot match iteration-pinned rules.
	if err := rt.InjectFault(apgas.FaultPointSpawn, rt.Place(1)); err != nil {
		t.Fatal(err)
	}
	if len(e.Kills()) != 0 {
		t.Fatal("iteration-pinned rule fired before the run started")
	}
	e.Advance(0)
	_ = rt.InjectFault(apgas.FaultPointSpawn, rt.Place(1))
	if len(e.Kills()) != 1 {
		t.Fatal("rule did not fire once the clock matched")
	}
}

// TestKillFingerprintFinishModeInvariance drives the same schedule through
// a sequential spawn pattern under both resilient-finish architectures and
// requires identical kill fingerprints: the spawn fault point fires in
// AsyncAt *before* the bookkeeping mode branches, so sharding the ledger
// must not perturb when or whom a schedule kills.
func TestKillFingerprintFinishModeInvariance(t *testing.T) {
	run := func(mode apgas.FinishMode) string {
		rt, err := apgas.New(
			apgas.WithPlaces(5),
			apgas.WithResilient(true),
			apgas.WithFinishMode(mode),
			apgas.WithObs(obs.NewRegistry()),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Shutdown()
		e, err := New(rt, MustParse("kill(point=spawn,prob=0.3,times=2)"), WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		e.Arm()
		e.Advance(0)
		// Sequential spawns: each finish waits before the next spawn, so
		// the spawn-point evaluation order is deterministic.
		for i := 0; i < 12; i++ {
			target := rt.Place(1 + i%4)
			_ = rt.Finish(func(ctx *apgas.Ctx) {
				ctx.AsyncAt(target, func(*apgas.Ctx) {})
			})
		}
		return e.Signature()
	}
	central := run(apgas.FinishCentral)
	sharded := run(apgas.FinishSharded)
	if central == "" {
		t.Fatal("schedule never fired; test is vacuous")
	}
	if central != sharded {
		t.Fatalf("kill fingerprint diverged across finish modes:\n central: %q\n sharded: %q", central, sharded)
	}
}

func TestSpanKillsAdjacentPlaces(t *testing.T) {
	rt := newTestRuntime(t, 5)
	e, err := New(rt, MustParse("kill(place=2,iter=1,span=3)"))
	if err != nil {
		t.Fatal(err)
	}
	e.Arm()
	e.Advance(1)
	if err := e.At(PointStep); err != nil {
		t.Fatal(err)
	}
	// The victim plus the next two live non-zero places by ascending ID.
	if got := e.Signature(); got != "1@step:p2,1@step:p3,1@step:p4" {
		t.Fatalf("signature %q", got)
	}
}

func TestSpanWrapsPastHighestPlace(t *testing.T) {
	rt := newTestRuntime(t, 4)
	e, err := New(rt, MustParse("kill(place=3,iter=0,span=2)"))
	if err != nil {
		t.Fatal(err)
	}
	e.Arm()
	e.Advance(0)
	if err := e.At(PointStep); err != nil {
		t.Fatal(err)
	}
	// Place 3 is the highest; the span wraps around to place 1 (never 0).
	if got := e.Signature(); got != "0@step:p3,0@step:p1" {
		t.Fatalf("signature %q", got)
	}
}

func TestSpanSkipsDeadPlacesAndClamps(t *testing.T) {
	rt := newTestRuntime(t, 5)
	if err := rt.Kill(rt.Place(3)); err != nil {
		t.Fatal(err)
	}
	e, err := New(rt, MustParse("kill(place=2,iter=0,span=10)"))
	if err != nil {
		t.Fatal(err)
	}
	e.Arm()
	e.Advance(0)
	if err := e.At(PointStep); err != nil {
		t.Fatal(err)
	}
	// Place 3 is already dead, so the span takes 2, 4 and wraps to 1 —
	// clamped to the live non-zero population.
	if got := e.Signature(); got != "0@step:p2,0@step:p4,0@step:p1" {
		t.Fatalf("signature %q", got)
	}
}

// processBodies is the in-process backend with pretend process bodies: a
// KillWorkerProcess is recorded and, when detect is set, reported to the
// runtime by a "detector" goroutine, the way tcp's connection loss does.
type processBodies struct {
	*local.Transport
	detect bool
	fail   error // KillWorkerProcess's error, as for a place with no body

	mu      sync.Mutex
	handler transport.Handler
	killed  []int
}

func (b *processBodies) Start(places int, h transport.Handler) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.handler = h
	return nil
}

func (b *processBodies) KillWorkerProcess(place int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fail != nil {
		return b.fail
	}
	b.killed = append(b.killed, place)
	if b.detect {
		go b.handler.PlaceDead(place, transport.CauseConn)
	}
	return nil
}

func newBodiesRuntime(t *testing.T, places int, b *processBodies) *apgas.Runtime {
	t.Helper()
	b.Transport = local.New()
	rt, err := apgas.New(apgas.WithPlaces(places), apgas.WithResilient(true), apgas.WithTransport(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestCrashNeedsProcessBodies(t *testing.T) {
	rt := newTestRuntime(t, 3)
	if _, err := New(rt, MustParse("crash(iter=1,place=1)")); err == nil {
		t.Fatal("a crash rule was accepted on the local backend")
	}
}

// TestCrashMatchesKill: a crash SIGKILLs the victim's body, returns only
// once the detector has reported the death, and logs the entry a kill
// with the same keys logs — the death counted as a failure, not a kill.
func TestCrashMatchesKill(t *testing.T) {
	const keys = "(point=commit,iter=2,place=1)"
	fire := func(e *Engine) {
		t.Helper()
		e.Arm()
		e.Advance(2)
		if err := e.At(PointCommit); err != nil {
			t.Fatal(err)
		}
	}
	rtK := newTestRuntime(t, 3)
	kill, err := New(rtK, MustParse("kill"+keys))
	if err != nil {
		t.Fatal(err)
	}
	fire(kill)

	bodies := &processBodies{detect: true}
	rtC := newBodiesRuntime(t, 3, bodies)
	crash, err := New(rtC, MustParse("crash"+keys))
	if err != nil {
		t.Fatal(err)
	}
	fire(crash)
	if !rtC.IsDead(rtC.Place(1)) {
		t.Fatal("At returned before the crash's victim was reported dead")
	}
	if len(bodies.killed) != 1 || bodies.killed[0] != 1 {
		t.Fatalf("process bodies killed: %v, want [1]", bodies.killed)
	}
	if crash.Signature() != kill.Signature() || crash.Signature() != "2@commit:p1" {
		t.Fatalf("crash signature %q, kill signature %q; want both 2@commit:p1", crash.Signature(), kill.Signature())
	}
	if st := rtC.Stats(); st.PlacesKilled != 0 || st.PlacesFailed != 1 {
		t.Fatalf("crash: killed/failed = %d/%d, want 0/1", st.PlacesKilled, st.PlacesFailed)
	}
	if st := rtK.Stats(); st.PlacesKilled != 1 || st.PlacesFailed != 0 {
		t.Fatalf("kill: killed/failed = %d/%d, want 1/0", st.PlacesKilled, st.PlacesFailed)
	}
}

// TestFailedCrashFailsLoudly: a crash whose victim's body cannot be
// killed, or whose death the detector never reports, stops the run with
// ErrCrashFailed instead of going on without the fault or against a
// place the runtime still thinks alive. Neither is logged as a kill.
func TestFailedCrashFailsLoudly(t *testing.T) {
	defer func(d time.Duration) { detectBound = d }(detectBound)
	detectBound = 20 * time.Millisecond
	for name, b := range map[string]*processBodies{
		"undetected": {},
		"no body":    {fail: errors.New("no spawned worker process")},
	} {
		rt := newBodiesRuntime(t, 3, b)
		e, err := New(rt, MustParse("crash(iter=0,place=2)"))
		if err != nil {
			t.Fatal(err)
		}
		e.Arm()
		e.Advance(0)
		if err := e.At(PointStep); !errors.Is(err, ErrCrashFailed) {
			t.Fatalf("%s: At = %v, want ErrCrashFailed", name, err)
		}
		if len(e.Kills()) != 0 {
			t.Fatalf("%s: kill log %v, want empty", name, e.Kills())
		}
	}
}
