package apps

import (
	"math"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/dist"
	"github.com/rgml/rgml/internal/la"
)

func lrCfg(iters int) LinRegConfig {
	return LinRegConfig{Examples: 120, Features: 8, Iterations: iters, Seed: 7}
}

func TestLinRegConverges(t *testing.T) {
	rt := newRT(t, 4)
	app, err := NewLinReg(rt, lrCfg(25), rt.World())
	if err != nil {
		t.Fatal(err)
	}
	for !app.IsFinished() {
		if err := app.Step(); err != nil {
			t.Fatal(err)
		}
	}
	w, err := app.Weights()
	if err != nil {
		t.Fatal(err)
	}
	// With tiny label noise, CG on the normal equations should recover the
	// planted weights closely.
	data := RegressionData{Seed: 7, Examples: 120, Features: 8}
	var maxErr float64
	for j := 0; j < 8; j++ {
		maxErr = math.Max(maxErr, math.Abs(w[j]-data.TrueWeight(j)))
	}
	if maxErr > 0.05 {
		t.Fatalf("weight error %v too large; w=%v", maxErr, w)
	}
}

func TestLinRegResidualDecreases(t *testing.T) {
	rt := newRT(t, 3)
	app, err := NewLinReg(rt, lrCfg(10), rt.World())
	if err != nil {
		t.Fatal(err)
	}
	prev := app.rsOld
	for !app.IsFinished() {
		if err := app.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if app.rsOld >= prev {
		t.Fatalf("residual did not decrease: %v -> %v", prev, app.rsOld)
	}
}

// TestLinRegNonResilientMatchesResilient runs both programs to the
// iteration cap and, with a Tolerance, to convergence well before it: they
// must stop at the same iteration with bitwise-equal weights.
func TestLinRegNonResilientMatchesResilient(t *testing.T) {
	converging := lrCfg(30)
	converging.Tolerance = 1e-2 // ‖r‖ falls below it at iteration 7
	for _, cfg := range []LinRegConfig{lrCfg(8), converging} {
		rt := newRT(t, 3)
		res, err := NewLinReg(rt, cfg, rt.World())
		if err != nil {
			t.Fatal(err)
		}
		non, err := NewLinRegNonResilient(rt, cfg, rt.World())
		if err != nil {
			t.Fatal(err)
		}
		runToEnd(t, res)
		runToEnd(t, non)
		if non.iter != res.iter || (cfg.Tolerance > 0 && res.iter >= int64(cfg.Iterations)) {
			t.Fatalf("tolerance %g: stopped at iterations %d and %d (cap %d)", cfg.Tolerance, res.iter, non.iter, cfg.Iterations)
		}
		a, _ := res.Weights()
		b, _ := non.Weights()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("tolerance %g: weight %d differs bitwise", cfg.Tolerance, i)
			}
		}
	}
}

// TestLinRegStopsAtCGBreakdown runs CG long past convergence on a small
// problem: the residual underflows to exactly zero (iteration 44 here),
// after which the next step's alpha would be 0/0. Both programs must stop
// there with finite weights instead of stepping on into NaN.
func TestLinRegStopsAtCGBreakdown(t *testing.T) {
	cfg := LinRegConfig{Examples: 40, Features: 4, Iterations: 100, Seed: 7}
	rt := newRT(t, 2)
	res, err := NewLinReg(rt, cfg, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	non, err := NewLinRegNonResilient(rt, cfg, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	runToEnd(t, res)
	runToEnd(t, non)
	if res.iter >= int64(cfg.Iterations) || non.iter != res.iter {
		t.Errorf("stopped at iterations %d and %d, want the same one before the cap %d", res.iter, non.iter, cfg.Iterations)
	}
	for name, app := range map[string]interface{ Weights() (la.Vector, error) }{"resilient": res, "non-resilient": non} {
		w, err := app.Weights()
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range w {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s: weight %d = %v after the breakdown", name, i, x)
			}
		}
	}
}

// failureFreeLinRegWeights runs LinReg to completion without failures.
func failureFreeLinRegWeights(t *testing.T, places, iters int) la.Vector {
	t.Helper()
	rt := newRT(t, places)
	app, err := NewLinReg(rt, lrCfg(iters), rt.World())
	if err != nil {
		t.Fatal(err)
	}
	for !app.IsFinished() {
		if err := app.Step(); err != nil {
			t.Fatal(err)
		}
	}
	w, err := app.Weights()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestLinRegRecoveryGridPreservingModesBitwise(t *testing.T) {
	want := failureFreeLinRegWeights(t, 4, 12)
	for _, mode := range []core.RestoreMode{core.Shrink, core.ReplaceRedundant, core.ReplaceElastic} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := newRT(t, 5)
			spares := 1
			if mode != core.ReplaceRedundant {
				spares = 1 // keep the active group at 4 places in all runs
			}
			exec, err := core.New(rt,
				core.WithCheckpointInterval(4),
				core.WithRestoreMode(mode),
				core.WithSpares(spares),
				core.WithAfterStep(killOnceAt(t, rt, rt.Place(2), 6)),
			)
			if err != nil {
				t.Fatal(err)
			}
			app, err := NewLinReg(rt, lrCfg(12), exec.ActiveGroup())
			if err != nil {
				t.Fatal(err)
			}
			if err := exec.Run(app); err != nil {
				t.Fatal(err)
			}
			got, err := app.Weights()
			if err != nil {
				t.Fatal(err)
			}
			// Grid-preserving recovery keeps the reduction tree, so the
			// recovered run reproduces the failure-free weights bit for
			// bit.
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("mode %v: weight %d differs (%v vs %v)", mode, i, got[i], want[i])
				}
			}
			if exec.Metrics().Restores == 0 {
				t.Fatal("no restore happened")
			}
		})
	}
}

func TestLinRegRecoveryRebalanceApprox(t *testing.T) {
	want := failureFreeLinRegWeights(t, 4, 12)
	rt := newRT(t, 5)
	exec, err := core.New(rt,
		core.WithCheckpointInterval(4),
		core.WithRestoreMode(core.ShrinkRebalance),
		core.WithSpares(1),
		// active group of 4, matching the reference run
		core.WithAfterStep(killOnceAt(t, rt, rt.Place(2), 6)),
	)
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewLinReg(rt, lrCfg(12), exec.ActiveGroup())
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Run(app); err != nil {
		t.Fatal(err)
	}
	got, err := app.Weights()
	if err != nil {
		t.Fatal(err)
	}
	// Rebalancing changes the row-block decomposition, so the Xᵀv
	// reduction order differs: results agree to rounding, not bitwise.
	if !got.EqualApprox(want, 1e-6) {
		t.Fatalf("rebalanced weights diverge: %v vs %v", got, want)
	}
}

// TestLinRegCGStateCheckpointedLossless checkpoints LinReg under a lossy
// policy coarse enough to change the model's values, steps on, and
// restores. The model w may come back perturbed, but the CG recurrence
// lives in r and p, which must come back bit for bit.
func TestLinRegCGStateCheckpointedLossless(t *testing.T) {
	rt, err := apgas.New(apgas.WithPlaces(3), apgas.WithResilient(true),
		apgas.WithCompression(codec.Spec{Mode: codec.CompressLossy, ErrorBound: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	app, err := NewLinReg(rt, lrCfg(10), rt.World())
	if err != nil {
		t.Fatal(err)
	}
	root := func(dv *dist.DupVector) la.Vector {
		t.Helper()
		v, err := dv.Root()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for i := 0; i < 3; i++ {
		if err := app.Step(); err != nil {
			t.Fatal(err)
		}
	}
	w, r, p := root(app.w), root(app.r), root(app.p)
	store := core.NewAppResilientStore()
	if err := app.Checkpoint(store); err != nil {
		t.Fatal(err)
	}
	if err := app.Step(); err != nil {
		t.Fatal(err)
	}
	if err := app.Restore(rt.World(), store, 3, false); err != nil {
		t.Fatal(err)
	}
	if root(app.w).EqualApprox(w, 0) {
		t.Fatal("w restored unchanged: the error bound is too fine to exercise the lossy path")
	}
	for name, vs := range map[string][2]la.Vector{"r": {r, root(app.r)}, "p": {p, root(app.p)}} {
		for i, x := range vs[0] {
			if got := vs[1][i]; math.Float64bits(got) != math.Float64bits(x) {
				t.Fatalf("%s[%d] restored as %v, checkpointed %v", name, i, got, x)
			}
		}
	}
}
