package apps

import (
	"math"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
)

func lgCfg(iters int) LogRegConfig {
	return LogRegConfig{Examples: 100, Features: 6, Iterations: iters, Seed: 13}
}

func TestLogRegLossDecreases(t *testing.T) {
	rt := newRT(t, 3)
	app, err := NewLogReg(rt, lgCfg(15), rt.World())
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	for !app.IsFinished() {
		if err := app.Step(); err != nil {
			t.Fatal(err)
		}
		losses = append(losses, app.Loss())
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
}

func TestLogRegTrainsAccurateModel(t *testing.T) {
	rt := newRT(t, 4)
	cfg := lgCfg(60)
	app, err := NewLogReg(rt, cfg, rt.World())
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
	// Evaluate training accuracy against the generator.
	data := RegressionData{Seed: cfg.Seed, Examples: cfg.Examples, Features: cfg.Features}
	correct := 0
	for i := 0; i < cfg.Examples; i++ {
		var score float64
		for j := 0; j < cfg.Features; j++ {
			score += data.Feature(i, j) * w[j]
		}
		pred := 0.0
		if la.Sigmoid(score) > 0.5 {
			pred = 1
		}
		if pred == data.BinaryLabel(i) {
			correct++
		}
	}
	if acc := float64(correct) / float64(cfg.Examples); acc < 0.8 {
		t.Fatalf("training accuracy %.2f too low", acc)
	}
}

func TestLogRegNonResilientMatchesResilient(t *testing.T) {
	rt := newRT(t, 3)
	res, err := NewLogReg(rt, lgCfg(6), rt.World())
	if err != nil {
		t.Fatal(err)
	}
	non, err := NewLogRegNonResilient(rt, lgCfg(6), rt.World())
	if err != nil {
		t.Fatal(err)
	}
	for !res.IsFinished() {
		if err := res.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := non.Run(); err != nil {
		t.Fatal(err)
	}
	a, _ := res.Weights()
	b, _ := non.Weights()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("weight %d differs bitwise", i)
		}
	}
	if res.Loss() != non.Loss() {
		t.Fatal("losses differ")
	}
}

func TestLogRegRecoveryShrinkBitwise(t *testing.T) {
	// Failure-free reference on 4 places.
	refRT := newRT(t, 4)
	ref, err := NewLogReg(refRT, lgCfg(10), refRT.World())
	if err != nil {
		t.Fatal(err)
	}
	for !ref.IsFinished() {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := ref.Weights()

	rt := newRT(t, 5)
	exec, err := core.New(rt,
		core.WithCheckpointInterval(3),
		core.WithRestoreMode(core.ReplaceRedundant),
		core.WithSpares(1),
		core.WithAfterStep(killOnceAt(t, rt, rt.Place(1), 5)),
	)
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewLogReg(rt, lgCfg(10), exec.ActiveGroup())
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Run(app); err != nil {
		t.Fatal(err)
	}
	got, _ := app.Weights()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("weight %d differs after recovery", i)
		}
	}
	if exec.Metrics().Restores != 1 {
		t.Fatalf("Restores = %d", exec.Metrics().Restores)
	}
}

func TestSourcesEmbedded(t *testing.T) {
	entries, err := Sources.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, e := range entries {
		found[e.Name()] = true
	}
	for _, want := range []string{
		"linreg.go", "linreg_nonresilient.go",
		"logreg.go", "logreg_nonresilient.go",
		"pagerank.go", "pagerank_nonresilient.go",
	} {
		if !found[want] {
			t.Errorf("source %s not embedded", want)
		}
	}
}

// threePassStep is LogReg's step as it was before the objective's scores
// seeded the next gradient: every step starts with its own s = X·w. It
// runs on a LogRegNonResilient's objects and is the reference the app's
// two-pass steps must reproduce bit for bit.
func threePassStep(a *LogRegNonResilient) error {
	if err := a.x.MultVec(a.w, a.s); err != nil {
		return err
	}
	err := a.s.ZipApplyLocal(a.yb, func(s, y la.Vector, _ int) {
		for i := range s {
			s[i] = la.Sigmoid(s[i]) - y[i]
		}
	})
	if err != nil {
		return err
	}
	if err := a.x.TransMultVec(a.s, a.grad); err != nil {
		return err
	}
	eta, lambda, invN := a.cfg.Eta, a.cfg.Lambda, 1/float64(a.cfg.Examples)
	err = a.w.ZipAll(a.grad, func(w, g la.Vector) {
		for i := range w {
			w[i] -= eta * (g[i]*invN + lambda*w[i])
		}
	})
	if err != nil {
		return err
	}
	if err := a.x.MultVec(a.w, a.s); err != nil {
		return err
	}
	loss, err := a.s.FoldZip(a.yb, func(s, y la.Vector, _ int) float64 {
		var l float64
		for i := range s {
			l += math.Log1p(math.Exp(-math.Abs(s[i]))) + math.Max(s[i], 0) - y[i]*s[i]
		}
		return l
	})
	if err != nil {
		return err
	}
	a.loss = loss * invN
	a.iter++
	return nil
}

// reuseCfg is the score-reuse tests' problem: three places of two row
// blocks each.
func reuseCfg(iters int) LogRegConfig {
	cfg := lgCfg(iters)
	cfg.RowBlocksPerPlace = 2
	return cfg
}

// TestLogRegMatchesThreePassReference: 40 two-pass steps of both LogReg
// variants end on the weights and loss of 40 three-pass reference steps,
// bit for bit — the resilient one through two kills, their restores and
// the replayed steps. The first kill fails a step; the second lands right
// after step 30 and fails the checkpoint taken there, so no failed step
// comes between that step's fresh scores and the restore, and only
// Restore can clear them.
func TestLogRegMatchesThreePassReference(t *testing.T) {
	const iters = 40
	refRT := newRT(t, 3)
	ref, err := NewLogRegNonResilient(refRT, reuseCfg(iters), refRT.World())
	if err != nil {
		t.Fatal(err)
	}
	for !ref.IsFinished() {
		if err := threePassStep(ref); err != nil {
			t.Fatal(err)
		}
	}
	wantW, _ := ref.Weights()
	wantLoss := ref.Loss()
	check := func(name string, w la.Vector, loss float64) {
		t.Helper()
		if iterateHash(w, []float64{loss}) != iterateHash(wantW, []float64{wantLoss}) {
			t.Errorf("%s: weights %v and loss %v, three-pass reference %v and %v", name, w, loss, wantW, wantLoss)
		}
	}

	nonRT := newRT(t, 3)
	non, err := NewLogRegNonResilient(nonRT, reuseCfg(iters), nonRT.World())
	if err != nil {
		t.Fatal(err)
	}
	if err := non.Run(); err != nil {
		t.Fatal(err)
	}
	w, _ := non.Weights()
	check("non-resilient", w, non.Loss())

	rt, reg := newRT(t, 5), obs.NewRegistry()
	eng, err := chaos.New(rt, chaos.MustParse("kill(place=1,iter=17)"))
	if err != nil {
		t.Fatal(err)
	}
	exec, err := core.New(rt,
		core.WithCheckpointInterval(5),
		core.WithRestoreMode(core.ReplaceRedundant),
		core.WithSpares(2),
		core.WithChaos(eng),
		core.WithAfterStep(killOnceAt(t, rt, rt.Place(2), 30)),
		core.WithObs(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewLogReg(rt, reuseCfg(iters), exec.ActiveGroup())
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Run(app); err != nil {
		t.Fatal(err)
	}
	if got := exec.Metrics().Restores; got != 2 {
		t.Fatalf("Restores = %d, want 2", got)
	}
	if got := reg.CounterValue("core.checkpoints.failed"); got != 1 {
		t.Fatalf("%d failed checkpoints, want 1", got)
	}
	w, _ = app.Weights()
	check("resilient through two kills", w, app.Loss())
}

// TestLogRegScoresSeedNextGradient counts dense mat-vec kernels per
// step: a steady step runs one GEMV per block (the objective pass), and
// only the first step — and the first step after a restore — also
// computes the gradient's scores.
func TestLogRegScoresSeedNextGradient(t *testing.T) {
	const blocks = 6 // three places, two row blocks each
	newObsRT := func(places int) (*apgas.Runtime, *obs.Histogram) {
		reg := obs.NewRegistry()
		rt, err := apgas.New(apgas.WithPlaces(places), apgas.WithResilient(true), apgas.WithObs(reg))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Shutdown)
		return rt, reg.Histogram("la.kernel.gemv")
	}
	// want returns the GEMV count a step should have run.
	want := func(first bool) int64 {
		if first {
			return 2 * blocks
		}
		return blocks
	}

	t.Run("non-resilient", func(t *testing.T) {
		rt, gemv := newObsRT(3)
		a, err := NewLogRegNonResilient(rt, reuseCfg(6), rt.World())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; !a.IsFinished(); i++ {
			before := gemv.Count()
			if err := a.Step(); err != nil {
				t.Fatal(err)
			}
			if got := gemv.Count() - before; got != want(i == 0) {
				t.Fatalf("step %d ran %d GEMVs, want %d", i+1, got, want(i == 0))
			}
		}
	})

	t.Run("resilient through a restore", func(t *testing.T) {
		rt, gemv := newObsRT(4)
		// Each entry is one completed step: its iteration number and the
		// GEMVs since the previous completed step (a failed step and the
		// restore after it included).
		var iters, counts []int64
		last := int64(0)
		// The kill fails the checkpoint at iteration 6, right after a
		// completed step.
		kill := killOnceAt(t, rt, rt.Place(1), 6)
		exec, err := core.New(rt,
			core.WithCheckpointInterval(3),
			core.WithRestoreMode(core.ReplaceRedundant),
			core.WithSpares(1),
			core.WithAfterStep(func(iter int64) {
				n := gemv.Count()
				iters, counts = append(iters, iter), append(counts, n-last)
				last = n
				kill(iter)
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewLogReg(rt, reuseCfg(8), exec.ActiveGroup())
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.Run(a); err != nil {
			t.Fatal(err)
		}
		if exec.Metrics().Restores != 1 {
			t.Fatalf("Restores = %d, want 1", exec.Metrics().Restores)
		}
		restarts := 0
		for i, it := range iters {
			first := i == 0 || it <= iters[i-1]
			if i > 0 && first {
				restarts++
			}
			if counts[i] != want(first) {
				t.Fatalf("step %d (iteration %d) ran %d GEMVs, want %d (iterations %v)", i+1, it, counts[i], want(first), iters)
			}
		}
		if restarts != 1 {
			t.Fatalf("iterations %v replay %d times, want once", iters, restarts)
		}
	})
}
