// Non-negative matrix factorization under checkpoint/restart — a fourth
// GML-style application on top of the framework, exercising the
// distributed matrix-matrix operations (WᵀV reductions, V·Hᵀ local
// products, element-wise multiplicative updates). A place dies mid-run;
// the factorization rolls back, recovers, and the objective keeps
// decreasing monotonically as Lee-Seung updates must.
package main

import (
	"fmt"
	"log"

	"github.com/rgml/rgml"
)

func main() {
	const places = 6
	rt, err := rgml.NewRuntimeWith(rgml.WithPlaces(places), rgml.WithResilient(true))
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Shutdown()

	sched, err := rgml.ParseChaosSchedule("kill(iter=8,place=3)")
	if err != nil {
		log.Fatal(err)
	}
	eng, err := rgml.NewChaosEngine(rt, sched)
	if err != nil {
		log.Fatal(err)
	}
	exec, err := rgml.NewExecutorWith(rt,
		rgml.WithCheckpointInterval(5),
		rgml.WithRestoreMode(rgml.Shrink),
		rgml.WithChaos(eng),
	)
	if err != nil {
		log.Fatal(err)
	}

	app, err := rgml.NewGNMF(rt, rgml.GNMFConfig{
		Rows: 1200, Cols: 300, NNZPerCol: 12, Rank: 8,
		Iterations: 20, Seed: 7,
	}, exec.ActiveGroup())
	if err != nil {
		log.Fatal(err)
	}

	before, err := app.Objective()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial ‖V−WH‖² = %.2f\n", before)

	if err := exec.Run(app); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chaos kills: %s\n", eng.Signature())
	after, err := app.Objective()
	if err != nil {
		log.Fatal(err)
	}
	m := exec.Metrics()
	fmt.Printf("final   ‖V−WH‖² = %.2f  (%.1f%% of initial)\n", after, 100*after/before)
	fmt.Printf("recovered from %d failure(s), %d iterations replayed, finished on %v\n",
		m.Restores, m.ReplayedSteps, exec.ActiveGroup())
	if after >= before {
		log.Fatal("objective did not decrease")
	}
}
