package core_test

import (
	"errors"
	"fmt"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/transport/local"
	"github.com/rgml/rgml/internal/apps"
	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/core"
)

// growRefused is the in-process transport with elastic growth refused, as
// on a tcp backend whose workers joined from outside.
type growRefused struct{ *local.Transport }

func (growRefused) Grow(int) error { return errors.New("place creation refused") }

// rebalanceApp records the rebalance flag of its last successful Restore.
type rebalanceApp struct {
	*counterApp
	rebalance bool
}

func (a *rebalanceApp) Restore(newPG apgas.PlaceGroup, store *core.AppResilientStore, snapshotIter int64, rebalance bool) error {
	if err := a.counterApp.Restore(newPG, store, snapshotIter, rebalance); err != nil {
		return err
	}
	a.rebalance = rebalance
	return nil
}

// killSchedule is a chaos schedule killing every victim before step 3,
// after the iteration-2 checkpoint.
func killSchedule(victims []int) string {
	s := ""
	for _, v := range victims {
		s += fmt.Sprintf("kill(iter=3,place=%d);", v)
	}
	return s
}

// newPlannerRT builds a resilient runtime of places places, over a
// transport that refuses to grow when refuse is set.
func newPlannerRT(t *testing.T, places int, refuse bool) *apgas.Runtime {
	t.Helper()
	opts := []apgas.Option{apgas.WithPlaces(places), apgas.WithResilient(true)}
	if refuse {
		opts = append(opts, apgas.WithTransport(growRefused{local.New()}))
	}
	rt, err := apgas.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

// TestPlannerModesAndPoolStates runs one recovery per restoration mode and
// spare-pool state over a four-place active group and checks the plan the
// executor committed: the group, the spares left, the rebalance flag, the
// places created, and the degrade counters and trace event.
func TestPlannerModesAndPoolStates(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mode     core.RestoreMode
		fallback core.RestoreMode
		spares   int
		refuse   bool // the transport refuses to create places
		victims  []int
		group    []int // final active group, by place ID
		left     int64 // live spares left in the pool
		rebal    bool
		shrunk   int64 // core.restore.shrunk_places
		refill   int64 // core.spares.refill_failed
		added    int64 // places created
		degraded int   // core.restore.degraded trace events
	}{
		{"shrink", core.Shrink, core.Shrink, 1, false, []int{1}, []int{0, 2, 3}, 1, false, 1, 0, 0, 0},
		{"shrink-rebalance", core.ShrinkRebalance, core.Shrink, 1, false, []int{1}, []int{0, 2, 3}, 1, true, 1, 0, 0, 0},
		{"redundant/covers-all", core.ReplaceRedundant, core.Shrink, 2, false, []int{1, 3}, []int{0, 4, 2, 5}, 0, false, 0, 0, 0, 0},
		{"redundant/covers-some", core.ReplaceRedundant, core.ShrinkRebalance, 1, false, []int{1, 3}, []int{0, 4, 2}, 0, true, 1, 0, 0, 1},
		{"redundant/empty", core.ReplaceRedundant, core.Shrink, 0, false, []int{1}, []int{0, 2, 3}, 0, false, 1, 0, 0, 1},
		{"elastic/covers-all", core.ReplaceElastic, core.Shrink, 2, false, []int{1, 3}, []int{0, 4, 2, 5}, 0, false, 0, 0, 0, 0},
		{"elastic/covers-some", core.ReplaceElastic, core.Shrink, 1, false, []int{1, 3}, []int{0, 4, 2, 5}, 0, false, 0, 0, 1, 0},
		{"elastic/empty", core.ReplaceElastic, core.Shrink, 0, false, []int{1, 3}, []int{0, 4, 2, 5}, 0, false, 0, 0, 2, 0},
		{"elastic/refill-fails/covers-some", core.ReplaceElastic, core.ShrinkRebalance, 1, true, []int{1, 3}, []int{0, 4, 2}, 0, true, 1, 1, 0, 1},
		{"elastic/refill-fails/empty", core.ReplaceElastic, core.Shrink, 0, true, []int{1}, []int{0, 2, 3}, 0, false, 1, 1, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newPlannerRT(t, 4+tc.spares, tc.refuse)
			eng, err := chaos.New(rt, chaos.MustParse(killSchedule(tc.victims)))
			if err != nil {
				t.Fatal(err)
			}
			exec, err := core.New(rt,
				core.WithCheckpointInterval(2),
				core.WithRestoreMode(tc.mode),
				core.WithFallback(tc.fallback),
				core.WithSpares(tc.spares),
				core.WithChaos(eng),
			)
			if err != nil {
				t.Fatal(err)
			}
			app := &rebalanceApp{counterApp: newCounterApp(t, rt, exec.ActiveGroup(), 16, 6)}
			if err := exec.Run(app); err != nil {
				t.Fatal(err)
			}
			verify(t, app.counterApp)
			if got := len(eng.Kills()); got != len(tc.victims) {
				t.Fatalf("%d kills, want %d", got, len(tc.victims))
			}
			if m := exec.Metrics(); m.Restores != 1 {
				t.Fatalf("Restores = %d, want 1", m.Restores)
			}
			var want apgas.PlaceGroup
			for _, id := range tc.group {
				want = append(want, rt.Place(id))
			}
			if got := exec.ActiveGroup(); !got.Equal(want) || !app.pg.Equal(want) {
				t.Errorf("final group %v (app %v), want %v", got, app.pg, want)
			}
			reg := exec.Registry()
			if got := reg.Gauge("core.spares.available").Value(); got != tc.left {
				t.Errorf("spares left = %d, want %d", got, tc.left)
			}
			if app.rebalance != tc.rebal {
				t.Errorf("rebalance = %v, want %v", app.rebalance, tc.rebal)
			}
			if got := reg.CounterValue("core.restore.shrunk_places"); got != tc.shrunk {
				t.Errorf("core.restore.shrunk_places = %d, want %d", got, tc.shrunk)
			}
			if got := reg.CounterValue("core.spares.refill_failed"); got != tc.refill {
				t.Errorf("core.spares.refill_failed = %d, want %d", got, tc.refill)
			}
			if got := rt.Stats().PlacesAdded; got != tc.added {
				t.Errorf("PlacesAdded = %d, want %d", got, tc.added)
			}
			if got := traceCount(reg, "core.restore.degraded"); got != tc.degraded {
				t.Errorf("core.restore.degraded events = %d, want %d", got, tc.degraded)
			}
		})
	}
}

// TestElasticRefillFailureDegradesLikeExhaustedPool runs LinReg twice under
// one kill schedule: ReplaceElastic over a transport that refuses to create
// places, and ReplaceRedundant whose one spare cannot cover both victims.
// The failed refill must degrade exactly as the exhausted pool does: the
// same final group and the bitwise-same final iterate.
func TestElasticRefillFailureDegradesLikeExhaustedPool(t *testing.T) {
	run := func(mode core.RestoreMode, refuse bool) (apgas.PlaceGroup, string) {
		t.Helper()
		rt := newPlannerRT(t, 5, refuse)
		eng, err := chaos.New(rt, chaos.MustParse(killSchedule([]int{1, 3})))
		if err != nil {
			t.Fatal(err)
		}
		exec, err := core.New(rt,
			core.WithCheckpointInterval(2),
			core.WithRestoreMode(mode),
			core.WithFallback(core.ShrinkRebalance),
			core.WithSpares(1),
			core.WithChaos(eng),
		)
		if err != nil {
			t.Fatal(err)
		}
		app, err := apps.NewLinReg(rt, apps.LinRegConfig{Examples: 160, Features: 8, Iterations: 8, Seed: 7}, exec.ActiveGroup())
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.Run(app); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if exec.Metrics().Restores != 1 {
			t.Fatalf("%v: Restores = %d, want 1", mode, exec.Metrics().Restores)
		}
		final, err := apps.FinalIterate(app)
		if err != nil {
			t.Fatal(err)
		}
		return exec.ActiveGroup(), apps.IterateHash(final)
	}
	elasticPG, elasticHash := run(core.ReplaceElastic, true)
	redundantPG, redundantHash := run(core.ReplaceRedundant, false)
	if !elasticPG.Equal(redundantPG) {
		t.Errorf("elastic group %v, redundant group %v", elasticPG, redundantPG)
	}
	if elasticHash != redundantHash {
		t.Errorf("elastic final iterate %s, redundant %s", elasticHash, redundantHash)
	}
}
