package apps

import (
	"sync"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/la"
)

func newRT(t *testing.T, places int) *apgas.Runtime {
	t.Helper()
	rt, err := apgas.New(apgas.WithPlaces(places), apgas.WithResilient(true))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

// runToEnd steps app until it reports finished: the whole run of a plain
// program.
func runToEnd(t *testing.T, app interface {
	IsFinished() bool
	Step() error
}) {
	t.Helper()
	for !app.IsFinished() {
		if err := app.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// referencePageRank runs the same power iteration single-place.
func referencePageRank(cfg PageRankConfig) la.Vector {
	cfg.setDefaults()
	n := cfg.Nodes
	link := LinkData{Seed: cfg.Seed, Nodes: n, OutDegree: cfg.OutDegree}
	var ts []la.Triplet
	for j := 0; j < n; j++ {
		rows, vals := link.Column(j)
		for k, i := range rows {
			ts = append(ts, la.Triplet{Row: i, Col: j, Val: vals[k]})
		}
	}
	g := la.NewSparseCSCFromTriplets(n, n, ts)
	p := la.NewVector(n).Fill(1 / float64(n))
	u := la.NewVector(n).Fill(1 / float64(n))
	gp := la.NewVector(n)
	for it := 0; it < cfg.Iterations; it++ {
		g.MultVec(p, gp)
		gp.Scale(cfg.Alpha)
		utp1a := u.Dot(p) * (1 - cfg.Alpha)
		p.CopyFrom(gp).CellAdd(utp1a)
	}
	return p
}

func prCfg(iters int) PageRankConfig {
	return PageRankConfig{Nodes: 60, OutDegree: 4, Iterations: iters, Seed: 42}
}

func TestPageRankMatchesReference(t *testing.T) {
	rt := newRT(t, 4)
	app, err := NewPageRank(rt, prCfg(12), rt.World())
	if err != nil {
		t.Fatal(err)
	}
	for !app.IsFinished() {
		if err := app.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := app.Ranks()
	if err != nil {
		t.Fatal(err)
	}
	want := referencePageRank(prCfg(12))
	if !got.EqualApprox(want, 1e-12) {
		t.Fatalf("distributed PageRank diverges from reference")
	}
	// Ranks are a probability-ish distribution: positive, sums near 1.
	if got.Sum() < 0.5 || got.Sum() > 1.5 {
		t.Errorf("rank sum = %v", got.Sum())
	}
}

// TestPageRankNonResilientMatchesResilient runs both programs to the
// iteration cap and, with a Tolerance, to convergence well before it: they
// must stop at the same iteration with bitwise-equal ranks.
func TestPageRankNonResilientMatchesResilient(t *testing.T) {
	converging := prCfg(50)
	converging.Tolerance = 1e-6 // the L1 change falls below it at iteration 16
	for _, cfg := range []PageRankConfig{prCfg(8), converging} {
		rt := newRT(t, 3)
		res, err := NewPageRank(rt, cfg, rt.World())
		if err != nil {
			t.Fatal(err)
		}
		non, err := NewPageRankNonResilient(rt, cfg, rt.World())
		if err != nil {
			t.Fatal(err)
		}
		runToEnd(t, res)
		runToEnd(t, non)
		if non.iter != res.iter || (cfg.Tolerance > 0 && res.iter >= int64(cfg.Iterations)) {
			t.Fatalf("tolerance %g: stopped at iterations %d and %d (cap %d)", cfg.Tolerance, res.iter, non.iter, cfg.Iterations)
		}
		a, _ := res.Ranks()
		b, _ := non.Ranks()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("tolerance %g: rank %d differs bitwise", cfg.Tolerance, i)
			}
		}
	}
}

// killOnceAt returns an executor hook killing victim after iteration k.
func killOnceAt(t *testing.T, rt *apgas.Runtime, victim apgas.Place, k int64) func(int64) {
	t.Helper()
	var once sync.Once
	return func(iter int64) {
		if iter == k {
			once.Do(func() {
				if err := rt.Kill(victim); err != nil {
					t.Errorf("Kill: %v", err)
				}
			})
		}
	}
}

func TestPageRankRecoversInEveryMode(t *testing.T) {
	want := referencePageRank(prCfg(12))
	for _, mode := range []core.RestoreMode{
		core.Shrink, core.ShrinkRebalance, core.ReplaceRedundant, core.ReplaceElastic,
	} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := newRT(t, 5)
			spares := 0
			if mode == core.ReplaceRedundant {
				spares = 1
			}
			victimID := 2
			exec, err := core.New(rt,
				core.WithCheckpointInterval(4),
				core.WithRestoreMode(mode),
				core.WithSpares(spares),
				core.WithAfterStep(killOnceAt(t, rt, rt.Place(victimID), 6)),
			)
			if err != nil {
				t.Fatal(err)
			}
			app, err := NewPageRank(rt, prCfg(12), exec.ActiveGroup())
			if err != nil {
				t.Fatal(err)
			}
			if err := exec.Run(app); err != nil {
				t.Fatal(err)
			}
			got, err := app.Ranks()
			if err != nil {
				t.Fatal(err)
			}
			// The uᵀP reduction is segmented, so runs on different group
			// sizes can differ in the last ulps; recovery must still agree
			// with the single-place reference to fp tolerance.
			if !got.EqualApprox(want, 1e-12) {
				t.Fatalf("mode %v: recovered ranks diverge from reference", mode)
			}
			if exec.Metrics().Restores == 0 {
				t.Fatal("no restore happened — failure injection broken")
			}
		})
	}
}

// Replace modes keep the group size and segmentation, so a recovered run
// must reproduce a failure-free executor run bit for bit.
func TestPageRankReplaceModesBitwise(t *testing.T) {
	// Failure-free run on a 4-place active group.
	refRT := newRT(t, 4)
	refExec, err := core.New(refRT, core.WithCheckpointInterval(4))
	if err != nil {
		t.Fatal(err)
	}
	refApp, err := NewPageRank(refRT, prCfg(12), refExec.ActiveGroup())
	if err != nil {
		t.Fatal(err)
	}
	if err := refExec.Run(refApp); err != nil {
		t.Fatal(err)
	}
	want, _ := refApp.Ranks()

	for _, mode := range []core.RestoreMode{core.ReplaceRedundant, core.ReplaceElastic} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := newRT(t, 5)
			spares := 1
			exec, err := core.New(rt,
				core.WithCheckpointInterval(4),
				core.WithRestoreMode(mode),
				core.WithSpares(spares),
				core.WithAfterStep(killOnceAt(t, rt, rt.Place(2), 6)),
			)
			if err != nil {
				t.Fatal(err)
			}
			app, err := NewPageRank(rt, prCfg(12), exec.ActiveGroup())
			if err != nil {
				t.Fatal(err)
			}
			if err := exec.Run(app); err != nil {
				t.Fatal(err)
			}
			got, _ := app.Ranks()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("mode %v: rank %d differs bitwise after recovery", mode, i)
				}
			}
		})
	}
}
