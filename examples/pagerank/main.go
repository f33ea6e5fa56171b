// PageRank under failure: the paper's flagship example (Listings 1-5).
// The resilient executor checkpoints every 10 iterations; a place dies
// mid-run; the run shrinks onto the survivors and finishes with ranks
// identical to a failure-free run.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"github.com/rgml/rgml"
)

func main() {
	const (
		places = 8
		nodes  = 4000
		iters  = 30
	)
	cfg := rgml.PageRankConfig{
		Nodes: nodes, OutDegree: 8, Iterations: iters, Seed: 2015,
	}

	// Failure-free reference run.
	want := run(cfg, places, 0)

	// Run with a failure injected after iteration 15 (the paper's Fig. 7
	// setup), shrink mode.
	got := run(cfg, places, 15)

	// Shrinking changes the segmentation of the uᵀP reduction, so the
	// recovered run can differ from the failure-free run in the last ulp;
	// anything beyond that would indicate lost or corrupted state.
	if !got.EqualApprox(want, 1e-12) {
		log.Fatalf("recovered ranks diverge from the failure-free run")
	}
	fmt.Println("failure run reproduced the failure-free ranks (to fp rounding)")

	// Show the top-5 ranked nodes.
	idx := make([]int, len(got))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return got[idx[a]] > got[idx[b]] })
	fmt.Println("top ranked nodes:")
	for _, i := range idx[:5] {
		fmt.Printf("  node %4d: %.6f\n", i, got[i])
	}
}

// run executes PageRank on its own runtime, optionally killing a place
// after iteration killIter, and returns the final ranks.
func run(cfg rgml.PageRankConfig, places, killIter int) rgml.Vector {
	// One registry observes the runtime and the executor; after a failure
	// run it holds the whole story: kills, restore attempts, snapshot
	// replica traffic.
	reg := rgml.NewMetricsRegistry()
	rt, err := rgml.NewRuntimeWith(
		rgml.WithPlaces(places),
		rgml.WithResilient(true),
		rgml.WithRuntimeObs(reg),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Shutdown()
	opts := []rgml.ExecutorOption{
		rgml.WithCheckpointInterval(10),
		rgml.WithRestoreMode(rgml.Shrink),
		rgml.WithExecutorObs(reg),
	}
	if killIter > 0 {
		sched, err := rgml.ParseChaosSchedule(fmt.Sprintf("kill(iter=%d,place=%d)", killIter, places/2))
		if err != nil {
			log.Fatal(err)
		}
		eng, err := rgml.NewChaosEngine(rt, sched)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, rgml.WithChaos(eng))
	}
	exec, err := rgml.NewExecutorWith(rt, opts...)
	if err != nil {
		log.Fatal(err)
	}
	app, err := rgml.NewPageRank(rt, cfg, exec.ActiveGroup())
	if err != nil {
		log.Fatal(err)
	}
	if err := exec.Run(app); err != nil {
		log.Fatal(err)
	}
	if killIter > 0 {
		m := exec.Metrics()
		fmt.Printf("recovered: %d restore(s) in %d attempt(s), %d iterations replayed, finished on %v\n",
			m.Restores, m.RestoreAttempts, m.ReplayedSteps, exec.ActiveGroup())
		// The trace ring records the recovery timeline event by event.
		fmt.Println("recovery trace:")
		for _, ev := range reg.TraceEvents() {
			fmt.Printf("  %8v %s (%d, %d)\n", ev.At.Round(time.Microsecond), ev.Name, ev.A, ev.B)
		}
	}
	ranks, err := app.Ranks()
	if err != nil {
		log.Fatal(err)
	}
	return ranks
}
