package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/obs"
)

// exportMetrics writes reg as JSON into Config.MetricsDir under name, or
// does nothing when no directory is configured.
func (c Config) exportMetrics(reg *obs.Registry, name string) error {
	if c.MetricsDir == "" {
		return nil
	}
	if err := os.MkdirAll(c.MetricsDir, 0o755); err != nil {
		return fmt.Errorf("bench: metrics dir: %w", err)
	}
	f, err := os.Create(filepath.Join(c.MetricsDir, name))
	if err != nil {
		return fmt.Errorf("bench: metrics export: %w", err)
	}
	defer f.Close()
	if err := reg.WriteJSON(f); err != nil {
		return fmt.Errorf("bench: metrics export: %w", err)
	}
	return nil
}

// Point is one measurement of a series.
type Point struct {
	Places int
	// Mean, Min, Max are in milliseconds (the paper reports mean, min and
	// max across runs).
	Mean, Min, Max float64
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is the regenerated data behind one of the paper's figures.
type Figure struct {
	ID     string // e.g. "fig2"
	Title  string
	YLabel string
	Series []Series
}

// timeRuns runs fn Runs times and reduces the millisecond measurements.
func (c Config) timeRuns(fn func(run int) (float64, error)) (Point, error) {
	var p Point
	for run := 0; run < c.Scale.Runs; run++ {
		ms, err := fn(run)
		if err != nil {
			return Point{}, err
		}
		if run == 0 || ms < p.Min {
			p.Min = ms
		}
		if run == 0 || ms > p.Max {
			p.Max = ms
		}
		p.Mean += ms
	}
	p.Mean /= float64(c.Scale.Runs)
	return p, nil
}

// FinishOverheadFigure regenerates Figures 2, 3 or 4: time per iteration
// of app under non-resilient vs resilient finish, weak scaling over
// Scale.PlaceCounts. No checkpointing is involved — the gap between the
// two curves is purely resilient X10's bookkeeping cost.
func (c Config) FinishOverheadFigure(app AppName) (*Figure, error) {
	fig := &Figure{
		Title:  fmt.Sprintf("%s: resilient X10 overhead", app),
		YLabel: "time per iteration (ms)",
		Series: []Series{{Name: "resilient finish"}, {Name: "non-resilient finish"}},
	}
	switch app {
	case LinReg:
		fig.ID = "fig2"
	case LogReg:
		fig.ID = "fig3"
	case PageRank:
		fig.ID = "fig4"
	}
	for _, places := range c.Scale.PlaceCounts {
		for si, resilient := range []bool{true, false} {
			pt, err := c.timeRuns(func(run int) (float64, error) {
				rt, err := c.newRuntime(places, resilient, nil)
				if err != nil {
					return 0, err
				}
				defer rt.Shutdown()
				a, err := c.newNonResilient(app, rt, rt.World(), places)
				if err != nil {
					return 0, err
				}
				start := time.Now()
				for !a.IsFinished() {
					if err := a.Step(); err != nil {
						return 0, err
					}
				}
				total := time.Since(start)
				return float64(total.Microseconds()) / 1000 / float64(c.Scale.Iterations), nil
			})
			if err != nil {
				return nil, fmt.Errorf("bench: %s places=%d resilient=%v: %w", app, places, resilient, err)
			}
			pt.Places = places
			fig.Series[si].Points = append(fig.Series[si].Points, pt)
			c.progressf("%s %s places=%d resilient=%v: %.2f ms/iter", fig.ID, app, places, resilient, pt.Mean)
		}
	}
	return fig, nil
}

// RestoreRun is one measured execution of the restore experiments.
type RestoreRun struct {
	TotalMS float64
	// CheckpointPct and RestorePct are the share of total time spent in
	// checkpointing and restoration (Table IV).
	CheckpointPct, RestorePct float64
}

// restoreModes are the three curves of Figures 5-7, in paper legend order.
var restoreModes = []core.RestoreMode{core.ShrinkRebalance, core.Shrink, core.ReplaceRedundant}

// RestoreFigure regenerates Figures 5, 6 or 7: total runtime of app for
// Scale.Iterations iterations with checkpoints every CheckpointInterval
// iterations and a single place failure injected after FailureIteration,
// for each restoration mode, plus the non-resilient no-failure baseline.
func (c Config) RestoreFigure(app AppName) (*Figure, error) {
	fig := &Figure{
		Title:  fmt.Sprintf("%s: total runtime with a single failure", app),
		YLabel: "total time (ms)",
	}
	switch app {
	case LinReg:
		fig.ID = "fig5"
	case LogReg:
		fig.ID = "fig6"
	case PageRank:
		fig.ID = "fig7"
	}
	for _, mode := range restoreModes {
		fig.Series = append(fig.Series, Series{Name: mode.String()})
	}
	fig.Series = append(fig.Series, Series{Name: "non-resilient (no failure)"})

	for _, places := range c.Scale.PlaceCounts {
		for si, mode := range restoreModes {
			pt, err := c.timeRuns(func(run int) (float64, error) {
				r, err := c.restoreRun(app, places, mode)
				return r.TotalMS, err
			})
			if err != nil {
				return nil, fmt.Errorf("bench: %s places=%d mode=%v: %w", app, places, mode, err)
			}
			pt.Places = places
			fig.Series[si].Points = append(fig.Series[si].Points, pt)
			c.progressf("%s %s places=%d mode=%v: %.0f ms total", fig.ID, app, places, mode, pt.Mean)
		}
		// Baseline: non-resilient runtime, plain loop, no failure.
		pt, err := c.timeRuns(func(run int) (float64, error) {
			rt, err := c.newRuntime(places, false, nil)
			if err != nil {
				return 0, err
			}
			defer rt.Shutdown()
			a, err := c.newNonResilient(app, rt, rt.World(), places)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			for !a.IsFinished() {
				if err := a.Step(); err != nil {
					return 0, err
				}
			}
			return float64(time.Since(start).Microseconds()) / 1000, nil
		})
		if err != nil {
			return nil, err
		}
		pt.Places = places
		fig.Series[len(fig.Series)-1].Points = append(fig.Series[len(fig.Series)-1].Points, pt)
		c.progressf("%s %s places=%d baseline: %.0f ms total", fig.ID, app, places, pt.Mean)
	}
	return fig, nil
}

// restoreRun executes one failure-and-recovery run and returns its
// timings. The weak-scaled problem size is determined by the active place
// count, which is `places` for every mode; replace-redundant allocates one
// extra place as the spare so the computation is comparable across modes.
func (c Config) restoreRun(app AppName, places int, mode core.RestoreMode) (RestoreRun, error) {
	total := places
	spares := 0
	if mode == core.ReplaceRedundant {
		total = places + 1
		spares = 1
	}
	// One registry instruments the runtime, the snapshot layer and the
	// executor, so the Table IV percentages and the optional JSON export
	// come from a single coherent document.
	reg := obs.NewRegistry()
	rt, err := c.newRuntime(total, true, reg)
	if err != nil {
		return RestoreRun{}, err
	}
	defer rt.Shutdown()
	// One kill of a mid-group active place, through the chaos engine like
	// every injected fault: it fires once FailureIteration steps have
	// completed, after that iteration's checkpoint decision.
	sched, err := chaos.Parse(fmt.Sprintf("kill(iter=%d,place=%d)", c.Scale.FailureIteration, places/2))
	if err != nil {
		return RestoreRun{}, err
	}
	eng, err := chaos.New(rt, sched)
	if err != nil {
		return RestoreRun{}, err
	}
	exec, err := core.New(rt,
		core.WithCheckpointInterval(c.Scale.CheckpointInterval),
		core.WithRestoreMode(mode),
		core.WithSpares(spares),
		core.WithObs(reg),
		core.WithChaos(eng),
	)
	if err != nil {
		return RestoreRun{}, err
	}
	a, err := c.newResilient(app, rt, exec.ActiveGroup(), places)
	if err != nil {
		return RestoreRun{}, err
	}
	if err := exec.Run(a); err != nil {
		return RestoreRun{}, err
	}
	m := exec.Metrics()
	if m.Restores == 0 {
		return RestoreRun{}, fmt.Errorf("bench: no restore happened (places=%d mode=%v)", places, mode)
	}
	if err := c.exportMetrics(reg, fmt.Sprintf("%s_%s_p%d.json", app, mode, places)); err != nil {
		return RestoreRun{}, err
	}
	return RestoreRun{
		TotalMS:       float64(m.Total.Microseconds()) / 1000,
		CheckpointPct: 100 * m.CheckpointTime.Seconds() / m.Total.Seconds(),
		RestorePct:    100 * m.RestoreTime.Seconds() / m.Total.Seconds(),
	}, nil
}
