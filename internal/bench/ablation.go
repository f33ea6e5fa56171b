package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apps"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/dist"
	"github.com/rgml/rgml/internal/snapshot"
)

// AblationRow is one measured variant of an ablation experiment.
type AblationRow struct {
	Experiment string
	Variant    string
	MS         float64
}

// Ablations measures the design-choice experiments of DESIGN.md section 9
// at the largest configured place count:
//
//   - ledger-cost: a bare task fan-out under non-resilient finish,
//     resilient finish with free bookkeeping, and resilient finish with
//     the modeled place-zero congestion — isolating what Figures 2-4's
//     gap is made of;
//   - backup-copy: checkpointing a distributed vector with double storage
//     vs local-only storage — the price of surviving a failure;
//   - read-only: three consecutive checkpoints of a LinReg-sized input
//     matrix with Save vs SaveReadOnly — why Table III stays flat;
//   - regrid-sparse: restoring a PageRank-sized sparse matrix onto fewer
//     places with a recalculated grid vs the survivor-keeping same-grid
//     restore every shrink recovery runs — the section IV-B2
//     overlap-and-count cost behind Table IV's rebalance column.
//
// Each row is the median of Scale.Runs measurements. Every run measures
// all variants in table order, so the variants of one experiment run back
// to back and host drift hits each of them alike.
func (c Config) Ablations() ([]AblationRow, error) {
	places := c.Scale.PlaceCounts[len(c.Scale.PlaceCounts)-1]

	// --- ledger-cost ---
	fanout := func(resilient bool, work int, mode apgas.FinishMode) (time.Duration, error) {
		cfg := c
		cfg.LedgerWork = work
		cfg.FinishMode = mode
		rt, err := cfg.newRuntime(places, resilient, nil)
		if err != nil {
			return 0, err
		}
		defer rt.Shutdown()
		const rounds = 50
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := apgas.ForEachPlace(rt, rt.World(), func(*apgas.Ctx, int) {}); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / rounds, nil
	}

	// --- backup-copy ---
	saveVec := func(backup bool) (time.Duration, error) {
		cfg := c
		cfg.Store = apgas.ReplicateStore(1)
		if backup {
			cfg.Store = apgas.ReplicateStore(2)
		}
		rt, err := cfg.newRuntime(places, true, nil)
		if err != nil {
			return 0, err
		}
		defer rt.Shutdown()
		pg := rt.World()
		v, err := dist.MakeDistVector(rt, c.Scale.LinRegExamplesPerPlace*places, pg)
		if err != nil {
			return 0, err
		}
		if err := v.Init(func(i int) float64 { return float64(i) }); err != nil {
			return 0, err
		}
		start := time.Now()
		s, err := snapshot.New(rt, pg)
		if err != nil {
			return 0, err
		}
		err = apgas.ForEachPlace(rt, pg, func(ctx *apgas.Ctx, idx int) {
			seg := v.Local(ctx)
			buf := make([]byte, 8*len(seg))
			s.Save(ctx, idx, buf)
		})
		elapsed := time.Since(start)
		s.Destroy()
		return elapsed, err
	}

	// --- read-only ---
	checkpoint3 := func(readOnly bool) (time.Duration, error) {
		rt, err := c.newRuntime(places, true, nil)
		if err != nil {
			return 0, err
		}
		defer rt.Shutdown()
		pg := rt.World()
		m, err := dist.MakeDistBlockMatrix(rt, block.Dense,
			c.Scale.LinRegExamplesPerPlace*places, c.Scale.LinRegFeatures,
			places, 1, places, 1, pg)
		if err != nil {
			return 0, err
		}
		if err := m.InitDense(func(i, j int) float64 { return float64(i ^ j) }); err != nil {
			return 0, err
		}
		store := core.NewAppResilientStore()
		start := time.Now()
		for k := 0; k < 3; k++ {
			if err := store.StartNewSnapshot(); err != nil {
				return 0, err
			}
			if readOnly {
				err = store.SaveReadOnly(m)
			} else {
				err = store.Save(m)
			}
			if err != nil {
				return 0, err
			}
			if err := store.Commit(); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / 3, nil
	}

	// --- regrid-sparse ---
	restoreSparse := func(regrid bool) (time.Duration, error) {
		rt, err := c.newRuntime(places, true, nil)
		if err != nil {
			return 0, err
		}
		defer rt.Shutdown()
		pg := rt.World()
		n := c.Scale.PageRankNodesPerPlace * places
		m, err := dist.MakeDistBlockMatrix(rt, block.Sparse, n, n, places, 1, places, 1, pg)
		if err != nil {
			return 0, err
		}
		link := apps.LinkData{Seed: c.Scale.Seed, Nodes: n, OutDegree: c.Scale.PageRankOutDegree}
		if err := m.InitSparseColumns(link.Column); err != nil {
			return 0, err
		}
		s, err := m.MakeSnapshot()
		if err != nil {
			return 0, err
		}
		defer s.Destroy()
		if err := rt.Kill(rt.Place(places / 2)); err != nil {
			return 0, err
		}
		if err := m.Remake(rt.World(), !regrid); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := m.RestoreSnapshot(s); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}

	variants := []struct {
		experiment, variant string
		measure             func() (time.Duration, error)
	}{
		{"ledger-cost", "non-resilient", func() (time.Duration, error) { return fanout(false, 0, apgas.FinishCentral) }},
		{"ledger-cost", "resilient/free-bookkeeping", func() (time.Duration, error) { return fanout(true, 0, apgas.FinishCentral) }},
		{"ledger-cost", "resilient/congested-ledger", func() (time.Duration, error) { return fanout(true, c.LedgerWork, apgas.FinishCentral) }},
		// The sharded variants isolate what home-based bookkeeping buys at
		// the same modeled congestion: batched delivery amortizes the
		// per-event cost, so the congested sharded row should sit near the
		// free one instead of climbing with it.
		{"ledger-cost", "resilient/sharded-free", func() (time.Duration, error) { return fanout(true, 0, apgas.FinishSharded) }},
		{"ledger-cost", "resilient/sharded-congested", func() (time.Duration, error) { return fanout(true, c.LedgerWork, apgas.FinishSharded) }},
		{"backup-copy", "double-storage", func() (time.Duration, error) { return saveVec(true) }},
		{"backup-copy", "local-only", func() (time.Duration, error) { return saveVec(false) }},
		{"read-only", "saveReadOnly×3", func() (time.Duration, error) { return checkpoint3(true) }},
		{"read-only", "save×3", func() (time.Duration, error) { return checkpoint3(false) }},
		{"regrid-sparse", "same-grid", func() (time.Duration, error) { return restoreSparse(false) }},
		{"regrid-sparse", "re-grid", func() (time.Duration, error) { return restoreSparse(true) }},
	}
	samples := make([][]float64, len(variants))
	for run := 0; run < c.Scale.Runs; run++ {
		for i, v := range variants {
			d, err := v.measure()
			if err != nil {
				return nil, fmt.Errorf("bench: ablation %s/%s: %w", v.experiment, v.variant, err)
			}
			samples[i] = append(samples[i], float64(d.Microseconds())/1000)
		}
	}
	rows := make([]AblationRow, len(variants))
	for i, v := range variants {
		rows[i] = AblationRow{Experiment: v.experiment, Variant: v.variant, MS: median(samples[i])}
		c.progressf("ablation %s/%s: %.2f ms (median of %d)", v.experiment, v.variant, rows[i].MS, c.Scale.Runs)
	}
	return rows, nil
}

// WriteAblations renders the ablation measurements, each the median of
// runs interleaved runs.
func WriteAblations(w io.Writer, rows []AblationRow, runs int) error {
	fmt.Fprintf(w, "# ablations: design-choice costs (DESIGN.md section 9), median of %d interleaved runs\n", runs)
	fmt.Fprintln(w, "experiment\tvariant\tms")
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s\t%s\t%.3f\n", r.Experiment, r.Variant, r.MS); err != nil {
			return err
		}
	}
	return nil
}
