package main

import (
	"fmt"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apps"
)

// nonResilientBudget bounds the non-resilient comparison run.
const nonResilientBudget = 1500 * time.Millisecond

// runNonResilient times the workload's non-resilient application variant
// — a plain step loop, resilient finish off, no executor — on the same
// backend, place count and problem, and returns its median step in ms.
// Paper Table II / Fig. 4: the distance to iter_ms is the price of
// resilient finish.
func runNonResilient(w workload, seed uint64) (float64, error) {
	opts := []apgas.Option{apgas.WithPlaces(w.Places), apgas.WithKernelWorkers(w.KernelWorkers)}
	if w.Backend == "tcp" {
		opts = append(opts, apgas.WithTransport(newTCP(w.KernelWorkers, nil)))
	}
	rt, err := apgas.New(opts...)
	if err != nil {
		return 0, err
	}
	defer rt.Shutdown()
	n, iters := w.PerPlace*w.Places, w.Warmup+w.Iters
	var step func() error
	switch w.App {
	case "linreg":
		a, err := apps.NewLinRegNonResilient(rt, apps.LinRegConfig{Examples: n, Features: w.Features, Iterations: iters, Seed: seed}, rt.World())
		if err != nil {
			return 0, err
		}
		step = a.Step
	case "logreg":
		a, err := apps.NewLogRegNonResilient(rt, apps.LogRegConfig{Examples: n, Features: w.Features, Iterations: iters, Seed: seed}, rt.World())
		if err != nil {
			return 0, err
		}
		step = a.Step
	case "pagerank":
		a, err := apps.NewPageRankNonResilient(rt, apps.PageRankConfig{Nodes: n, OutDegree: w.OutDegree, Iterations: iters, Seed: seed}, rt.World())
		if err != nil {
			return 0, err
		}
		step = a.Step
	default:
		return 0, fmt.Errorf("unknown app %q", w.App)
	}
	var ms []float64
	deadline := time.Now().Add(nonResilientBudget)
	for i := 0; i < iters && (i < w.Warmup+30 || time.Now().Before(deadline)); i++ {
		t0 := time.Now()
		if err := step(); err != nil {
			return 0, err
		}
		if i >= w.Warmup {
			ms = append(ms, float64(time.Since(t0))/1e6)
		}
	}
	return median(ms), nil
}
