package bench

import (
	"fmt"
	"sort"

	"github.com/rgml/rgml/internal/core"
)

// CheckpointRow is one row of Table III: mean checkpoint time per
// application at one place count.
type CheckpointRow struct {
	Places int
	// MeanMS maps application name to mean checkpoint time in ms.
	MeanMS map[AppName]float64
}

// CheckpointTable regenerates Table III: the mean time per checkpoint for
// the three resilient applications, checkpointing every
// Scale.CheckpointInterval iterations with no failures. All three
// applications checkpoint their big input matrix with SaveReadOnly, so
// only the first checkpoint pays for it; the mean reflects the paper's
// measurement protocol.
func (c Config) CheckpointTable() ([]CheckpointRow, error) {
	var rows []CheckpointRow
	for _, places := range c.Scale.PlaceCounts {
		row := CheckpointRow{Places: places, MeanMS: make(map[AppName]float64)}
		for _, app := range Apps {
			var meanMS float64
			_, err := c.timeRuns(func(run int) (float64, error) {
				rt, err := c.newRuntime(places, true, nil)
				if err != nil {
					return 0, err
				}
				defer rt.Shutdown()
				exec, err := core.New(rt,
					core.WithCheckpointInterval(c.Scale.CheckpointInterval))
				if err != nil {
					return 0, err
				}
				a, err := c.newResilient(app, rt, exec.ActiveGroup(), places)
				if err != nil {
					return 0, err
				}
				if err := exec.Run(a); err != nil {
					return 0, err
				}
				m := exec.Metrics()
				if m.Checkpoints == 0 {
					return 0, fmt.Errorf("bench: no checkpoints taken")
				}
				ms := float64(m.CheckpointTime.Microseconds()) / 1000 / float64(m.Checkpoints)
				meanMS += ms / float64(c.Scale.Runs)
				return ms, nil
			})
			if err != nil {
				return nil, fmt.Errorf("bench: table3 %s places=%d: %w", app, places, err)
			}
			row.MeanMS[app] = meanMS
			c.progressf("table3 %s places=%d: %.1f ms/checkpoint", app, places, meanMS)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PercentRow is one row of Table IV: the share of total time consumed by
// checkpoint (C%) and restore (R%) operations for one application, per
// restoration mode, at the largest measured place count.
type PercentRow struct {
	App AppName
	// Pct maps mode name to [C%, R%].
	Pct map[string][2]float64
}

// PercentTable regenerates Table IV from the restore experiments at the
// largest configured place count. Each cell is the median of Scale.Runs
// restore runs, the run count the figures average over: one run's share
// moves by several points on a shared host.
func (c Config) PercentTable() ([]PercentRow, error) {
	places := c.Scale.PlaceCounts[len(c.Scale.PlaceCounts)-1]
	var rows []PercentRow
	for _, app := range Apps {
		row := PercentRow{App: app, Pct: make(map[string][2]float64)}
		for _, mode := range restoreModes {
			var ckpt, restore []float64
			for run := 0; run < c.Scale.Runs; run++ {
				r, err := c.restoreRun(app, places, mode)
				if err != nil {
					return nil, fmt.Errorf("bench: table4 %s mode=%v: %w", app, mode, err)
				}
				ckpt, restore = append(ckpt, r.CheckpointPct), append(restore, r.RestorePct)
			}
			pct := [2]float64{median(ckpt), median(restore)}
			row.Pct[mode.String()] = pct
			c.progressf("table4 %s %v: C=%.0f%% R=%.0f%% (median of %d)", app, mode, pct[0], pct[1], c.Scale.Runs)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); it sorts xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
