package rgml_test

import (
	"context"
	"errors"
	"testing"

	"github.com/rgml/rgml"
)

// TestFacadeEndToEnd exercises the public API exactly as a downstream user
// would: build a runtime, distribute a matrix, compute, checkpoint through
// the executor, survive a failure, and check the result.
func TestFacadeEndToEnd(t *testing.T) {
	rt, err := rgml.NewRuntimeWith(rgml.WithPlaces(4), rgml.WithResilient(true))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	killed := false
	exec, err := rgml.NewExecutorWith(rt,
		rgml.WithCheckpointInterval(3),
		rgml.WithRestoreMode(rgml.Shrink),
		rgml.WithAfterStep(func(iter int64) {
			if !killed && iter == 4 {
				killed = true
				if err := rt.Kill(rt.Place(2)); err != nil {
					t.Errorf("Kill: %v", err)
				}
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	app, err := rgml.NewPageRank(rt, rgml.PageRankConfig{
		Nodes: 80, OutDegree: 4, Iterations: 10, Seed: 3,
	}, exec.ActiveGroup())
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Run(app); err != nil {
		t.Fatal(err)
	}
	ranks, err := app.Ranks()
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 80 {
		t.Fatalf("ranks len = %d", len(ranks))
	}
	sum := 0.0
	for _, r := range ranks {
		if r <= 0 {
			t.Fatal("non-positive rank")
		}
		sum += r
	}
	if sum < 0.5 || sum > 1.5 {
		t.Fatalf("rank mass = %v", sum)
	}
	if exec.Metrics().Restores != 1 {
		t.Fatalf("Restores = %d", exec.Metrics().Restores)
	}
}

// TestFacadeGMLObjects covers the matrix/vector factory surface.
func TestFacadeGMLObjects(t *testing.T) {
	rt, err := rgml.NewRuntimeWith(rgml.WithPlaces(3), rgml.WithResilient(true))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	pg := rt.World()

	m, err := rgml.MakeDistBlockMatrix(rt, rgml.DenseBlocks, 9, 4, 3, 1, 3, 1, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InitDense(func(i, j int) float64 { return float64(i - j) }); err != nil {
		t.Fatal(err)
	}
	x, err := rgml.MakeDupVector(rt, 4, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Init(func(int) float64 { return 2 }); err != nil {
		t.Fatal(err)
	}
	y, err := rgml.MakeDistVector(rt, 9, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MultVec(x, y); err != nil {
		t.Fatal(err)
	}
	got, err := y.ToVector()
	if err != nil {
		t.Fatal(err)
	}
	// Row i: sum over j of (i-j)*2 = 2*(4i - 6).
	for i, v := range got {
		want := 2 * float64(4*i-6)
		if v != want {
			t.Fatalf("y[%d] = %v, want %v", i, v, want)
		}
	}

	// The one-block-per-place and duplicated classes construct too.
	if _, err := rgml.MakeDistDenseMatrix(rt, 9, 4, pg); err != nil {
		t.Fatal(err)
	}
	if _, err := rgml.MakeDistSparseMatrix(rt, 9, 4, pg); err != nil {
		t.Fatal(err)
	}
	if _, err := rgml.MakeDupDenseMatrix(rt, 3, 3, pg); err != nil {
		t.Fatal(err)
	}
	if _, err := rgml.MakeDupSparseMatrix(rt, 3, 3, pg); err != nil {
		t.Fatal(err)
	}
	if v := rgml.NewVector(5); len(v) != 5 {
		t.Fatal("NewVector")
	}
	if d := rgml.NewDense(2, 3); d.Rows != 2 {
		t.Fatal("NewDense")
	}
	if rgml.NewRNG(1).Float64() < 0 {
		t.Fatal("NewRNG")
	}
}

// TestFacadeGNMF drives the extension application through the facade.
func TestFacadeGNMF(t *testing.T) {
	rt, err := rgml.NewRuntimeWith(rgml.WithPlaces(3), rgml.WithResilient(true))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	exec, err := rgml.NewExecutorWith(rt, rgml.WithCheckpointInterval(3))
	if err != nil {
		t.Fatal(err)
	}
	app, err := rgml.NewGNMF(rt, rgml.GNMFConfig{
		Rows: 30, Cols: 12, NNZPerCol: 3, Rank: 2, Iterations: 6, Seed: 5,
	}, exec.ActiveGroup())
	if err != nil {
		t.Fatal(err)
	}
	before, err := app.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Run(app); err != nil {
		t.Fatal(err)
	}
	after, err := app.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("objective did not decrease: %v -> %v", before, after)
	}
}

// TestFacadeOptionsAndChaos exercises the functional-options constructors
// and the chaos surface end to end: a seeded schedule kills a place inside
// a checkpoint commit and the run recovers under RunContext.
func TestFacadeOptionsAndChaos(t *testing.T) {
	reg := rgml.NewMetricsRegistry()
	rt, err := rgml.NewRuntimeWith(
		rgml.WithPlaces(4),
		rgml.WithResilient(true),
		rgml.WithRuntimeObs(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	sched, err := rgml.ParseChaosSchedule("kill(point=commit,iter=2,place=1)")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := rgml.NewChaosEngine(rt, sched, rgml.WithChaosSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	exec, err := rgml.NewExecutorWith(rt,
		rgml.WithCheckpointInterval(2),
		rgml.WithRestoreMode(rgml.Shrink),
		rgml.WithExecutorObs(reg),
		rgml.WithChaos(eng),
	)
	if err != nil {
		t.Fatal(err)
	}
	app, err := rgml.NewLinReg(rt, rgml.LinRegConfig{
		Examples: 64, Features: 8, Iterations: 6, Seed: 1,
	}, exec.ActiveGroup())
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.RunContext(context.Background(), app); err != nil {
		t.Fatal(err)
	}
	if got := eng.Signature(); got != "2@commit:p1" {
		t.Errorf("chaos signature = %q, want 2@commit:p1", got)
	}
	if exec.Metrics().Restores != 1 {
		t.Errorf("Restores = %d, want 1", exec.Metrics().Restores)
	}
	if _, err := app.Weights(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeContextCancel checks that a canceled run surfaces the typed
// ErrCanceled through the facade.
func TestFacadeContextCancel(t *testing.T) {
	rt, err := rgml.NewRuntimeWith(rgml.WithPlaces(2), rgml.WithResilient(true))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	exec, err := rgml.NewExecutorWith(rt, rgml.WithCheckpointInterval(2))
	if err != nil {
		t.Fatal(err)
	}
	app, err := rgml.NewLinReg(rt, rgml.LinRegConfig{
		Examples: 32, Features: 4, Iterations: 4, Seed: 1,
	}, exec.ActiveGroup())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := exec.RunContext(ctx, app); !errors.Is(err, rgml.ErrCanceled) {
		t.Fatalf("RunContext = %v, want ErrCanceled", err)
	}
}

// TestFacadeErrors covers the error-inspection helpers.
func TestFacadeErrors(t *testing.T) {
	rt, err := rgml.NewRuntimeWith(rgml.WithPlaces(3), rgml.WithResilient(true))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if err := rt.Kill(rt.Place(1)); err != nil {
		t.Fatal(err)
	}
	err = rgml.ForEachPlace(rt, rgml.PlaceGroup{rt.Place(0), rt.Place(1)}, func(ctx *rgml.Ctx, idx int) {})
	if !rgml.IsDeadPlace(err) {
		t.Fatalf("IsDeadPlace = false for %v", err)
	}
	dead := rgml.DeadPlaces(err)
	if len(dead) != 1 || dead[0].ID != 1 {
		t.Fatalf("DeadPlaces = %v", dead)
	}
}

// TestFacadeFinishMode exercises the finish-architecture re-exports: mode
// parsing, the runtime options, and a sharded run reaching the same result.
func TestFacadeFinishMode(t *testing.T) {
	m, err := rgml.ParseFinishMode("sharded")
	if err != nil || m != rgml.FinishSharded {
		t.Fatalf("ParseFinishMode = %v, %v", m, err)
	}
	if _, err := rgml.ParseFinishMode("bogus"); err == nil {
		t.Fatal("ParseFinishMode accepted bogus mode")
	}
	rt, err := rgml.NewRuntimeWith(
		rgml.WithPlaces(3),
		rgml.WithResilient(true),
		rgml.WithFinishMode(rgml.FinishSharded),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if err := rt.Kill(rt.Place(1)); err != nil {
		t.Fatal(err)
	}
	err = rgml.ForEachPlace(rt, rgml.PlaceGroup{rt.Place(0), rt.Place(1), rt.Place(2)},
		func(ctx *rgml.Ctx, idx int) {})
	if !rgml.IsDeadPlace(err) {
		t.Fatalf("IsDeadPlace = false for %v", err)
	}
}
