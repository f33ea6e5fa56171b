package apps

import (
	"testing"

	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/core"
)

func gnmfCfg(iters int) GNMFConfig {
	return GNMFConfig{
		Rows: 40, Cols: 24, NNZPerCol: 4, Rank: 3,
		Iterations: iters, Seed: 17,
	}
}

func TestGNMFObjectiveDecreases(t *testing.T) {
	rt := newRT(t, 4)
	app, err := NewGNMF(rt, gnmfCfg(20), rt.World())
	if err != nil {
		t.Fatal(err)
	}
	first, err := app.Objective()
	if err != nil {
		t.Fatal(err)
	}
	for !app.IsFinished() {
		if err := app.Step(); err != nil {
			t.Fatal(err)
		}
	}
	last, err := app.Objective()
	if err != nil {
		t.Fatal(err)
	}
	// Lee-Seung multiplicative updates are monotonically non-increasing
	// in the Frobenius objective.
	if last >= first {
		t.Fatalf("objective did not decrease: %v -> %v", first, last)
	}
}

func TestGNMFFactorsStayNonNegative(t *testing.T) {
	rt := newRT(t, 3)
	app, err := NewGNMF(rt, gnmfCfg(10), rt.World())
	if err != nil {
		t.Fatal(err)
	}
	for !app.IsFinished() {
		if err := app.Step(); err != nil {
			t.Fatal(err)
		}
	}
	w, h, err := app.Factors()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range w.Data {
		if v < 0 {
			t.Fatal("negative entry in W")
		}
	}
	for _, v := range h.Data {
		if v < 0 {
			t.Fatal("negative entry in H")
		}
	}
}

func TestGNMFRecoversInShrinkAndReplaceModes(t *testing.T) {
	// Failure-free reference on 4 places.
	refRT := newRT(t, 4)
	ref, err := NewGNMF(refRT, gnmfCfg(12), refRT.World())
	if err != nil {
		t.Fatal(err)
	}
	for !ref.IsFinished() {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}
	refW, refH, err := ref.Factors()
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []core.RestoreMode{core.Shrink, core.ShrinkRebalance, core.ReplaceRedundant} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := newRT(t, 5)
			spares := 0
			if mode == core.ReplaceRedundant {
				spares = 1
			}
			eng, err := chaos.New(rt, chaos.MustParse("kill(iter=6,place=2)"))
			if err != nil {
				t.Fatal(err)
			}
			exec, err := core.New(rt,
				core.WithCheckpointInterval(4),
				core.WithRestoreMode(mode),
				core.WithSpares(spares),
				core.WithChaos(eng),
			)
			if err != nil {
				t.Fatal(err)
			}
			app, err := NewGNMF(rt, gnmfCfg(12), exec.ActiveGroup())
			if err != nil {
				t.Fatal(err)
			}
			if err := exec.Run(app); err != nil {
				t.Fatal(err)
			}
			if len(eng.Kills()) != 1 || exec.Metrics().Restores == 0 {
				t.Fatal("failure injection or recovery missing")
			}
			w, h, err := app.Factors()
			if err != nil {
				t.Fatal(err)
			}
			// Replace mode keeps the 4-place group, grid and reduction
			// shape of the reference run; shrink modes change the
			// reduction segmentation, so compare to fp tolerance.
			tol := 1e-9
			if mode == core.ReplaceRedundant {
				tol = 0
			}
			if !w.EqualApprox(refW, tol) {
				t.Fatalf("W diverges after %v recovery", mode)
			}
			if !h.EqualApprox(refH, tol) {
				t.Fatalf("H diverges after %v recovery", mode)
			}
		})
	}
}

func TestGNMFValidation(t *testing.T) {
	rt := newRT(t, 2)
	cfg := gnmfCfg(3)
	cfg.Rank = 0
	if _, err := NewGNMF(rt, cfg, rt.World()); err == nil {
		t.Fatal("zero rank accepted")
	}
}
