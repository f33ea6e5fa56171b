// Linear regression with a hot spare: the replace-redundant restoration
// mode (paper section V-B3). One extra place is reserved at start; when an
// active place dies, the spare takes its position in the group, the data
// distribution stays unchanged, and training continues at full width.
package main

import (
	"fmt"
	"log"

	"github.com/rgml/rgml"
)

func main() {
	const (
		activePlaces = 6
		spares       = 1
		examples     = 3000
		features     = 32
		iters        = 25
	)
	rt, err := rgml.NewRuntimeWith(
		rgml.WithPlaces(activePlaces+spares),
		rgml.WithResilient(true),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Shutdown()

	sched, err := rgml.ParseChaosSchedule("kill(iter=12,place=3)")
	if err != nil {
		log.Fatal(err)
	}
	eng, err := rgml.NewChaosEngine(rt, sched)
	if err != nil {
		log.Fatal(err)
	}
	exec, err := rgml.NewExecutorWith(rt,
		rgml.WithCheckpointInterval(5),
		rgml.WithRestoreMode(rgml.ReplaceRedundant),
		rgml.WithSpares(spares),
		rgml.WithChaos(eng),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("active: %v  (1 spare reserved)\n", exec.ActiveGroup())

	app, err := rgml.NewLinReg(rt, rgml.LinRegConfig{
		Examples: examples, Features: features, Iterations: iters, Seed: 7,
	}, exec.ActiveGroup())
	if err != nil {
		log.Fatal(err)
	}
	if err := exec.Run(app); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chaos kills: %s\n", eng.Signature())

	m := exec.Metrics()
	fmt.Printf("finished on %v — group size unchanged, no rebalancing needed\n", exec.ActiveGroup())
	fmt.Printf("restores: %d, iterations replayed: %d\n", m.Restores, m.ReplayedSteps)

	w, err := app.Weights()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("first trained weights:", w[:4])
}
