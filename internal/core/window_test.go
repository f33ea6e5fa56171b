package core_test

import (
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apps"
	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/core"
)

// TestSecondKillInWindow kills a place, lets the executor restore from the
// iteration-5 commit, and kills again before the iteration-10 checkpoint,
// under every restore mode and under replicate k=2 and erasure d=3,p=2.
// The second kill takes the place after the first victim (and under
// erasure the one after it too), so the commit survives it only because
// the first restore's repair re-homed or re-replicated the first victim's
// copies. The restore does not re-checkpoint the state it just loaded: the
// run takes one checkpoint per interval boundary (0, 5, 10, 15), and each
// restore emits core.checkpoint.skipped at iteration 5 instead. The final
// LogReg iterate is pinned: the replace modes and Shrink (which keeps the
// block grid) reproduce the failure-free run, and ShrinkRebalance the hash
// its schedule gave when every restore was followed by a checkpoint.
func TestSecondKillInWindow(t *testing.T) {
	const (
		places   = 6
		interval = 5
		iters    = 20
		// failureFree is the failure-free run's final iterate.
		failureFree = "51eab73f86a39d3f"
	)
	run := func(t *testing.T, pol apgas.StorePolicy, mode core.RestoreMode, schedule string) (*core.Executor, *chaos.Engine, string) {
		t.Helper()
		spares := 0
		if mode == core.ReplaceRedundant {
			spares = 3
		}
		rt := newStoreRT(t, places+spares, pol)
		opts := []core.Option{
			core.WithCheckpointInterval(interval),
			core.WithRestoreMode(mode),
			core.WithSpares(spares),
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
		app, err := apps.NewLogReg(rt, apps.LogRegConfig{Examples: 120, Features: 6, Iterations: iters, Seed: 13}, exec.ActiveGroup())
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.Run(app); err != nil {
			t.Fatal(err)
		}
		w, err := app.Weights()
		if err != nil {
			t.Fatal(err)
		}
		return exec, eng, apps.IterateHash(w)
	}

	t.Run("failure-free", func(t *testing.T) {
		if _, _, got := run(t, apgas.StorePolicy{}, core.Shrink, ""); got != failureFree {
			t.Fatalf("final iterate %s, want %s", got, failureFree)
		}
	})
	policies := []struct {
		name      string
		pol       apgas.StorePolicy
		schedule  string
		signature string
		rebalance string // final iterate under ShrinkRebalance
	}{
		{"replicate-k2", apgas.ReplicateStore(2),
			"kill(iter=7,place=1);kill(iter=8,place=2)",
			"7@step:p1,8@step:p2", "b17c444b7dbc9f5e"},
		{"erasure-3-2", apgas.ErasureStore(3, 2),
			"kill(iter=7,place=1);kill(iter=8,place=2,span=2)",
			"7@step:p1,8@step:p2,8@step:p3", "a024f4aa11bbf4b4"},
	}
	for _, p := range policies {
		for _, mode := range []core.RestoreMode{core.Shrink, core.ShrinkRebalance, core.ReplaceRedundant, core.ReplaceElastic} {
			t.Run(p.name+"/"+mode.String(), func(t *testing.T) {
				exec, eng, got := run(t, p.pol, mode, p.schedule)
				if sig := eng.Signature(); sig != p.signature {
					t.Fatalf("kill signature = %q, want %q", sig, p.signature)
				}
				m := exec.Metrics()
				if m.Restores != 2 {
					t.Fatalf("Restores = %d, want 2", m.Restores)
				}
				if boundaries := int64((iters + interval - 1) / interval); m.Checkpoints != boundaries {
					t.Errorf("core.checkpoints = %d, want %d (one per interval boundary)", m.Checkpoints, boundaries)
				}
				skipped := 0
				for _, ev := range exec.Registry().TraceEvents() {
					if ev.Name == "core.checkpoint.skipped" {
						if ev.A != interval {
							t.Errorf("core.checkpoint.skipped at iteration %d, want %d", ev.A, interval)
						}
						skipped++
					}
				}
				if skipped != 2 {
					t.Errorf("core.checkpoint.skipped events = %d, want 2 (one per restore)", skipped)
				}
				want := failureFree
				if mode == core.ShrinkRebalance {
					want = p.rebalance
				}
				if got != want {
					t.Errorf("final iterate %s, want %s", got, want)
				}
			})
		}
	}
}
