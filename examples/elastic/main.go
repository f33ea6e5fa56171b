// Logistic regression under the replace-elastic restoration mode — the
// paper's future-work fourth mode, built on dynamic place creation
// (Elastic X10): instead of reserving spares up front, a brand-new place
// is created to take each failed place's position.
package main

import (
	"fmt"
	"log"

	"github.com/rgml/rgml"
)

func main() {
	const (
		places   = 6
		examples = 3000
		features = 32
		iters    = 25
	)
	rt, err := rgml.NewRuntimeWith(rgml.WithPlaces(places), rgml.WithResilient(true))
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Shutdown()

	// Two separate failures: both victims are replaced by places created
	// on the fly.
	sched, err := rgml.ParseChaosSchedule("kill(iter=8,place=1);kill(iter=17,place=3)")
	if err != nil {
		log.Fatal(err)
	}
	eng, err := rgml.NewChaosEngine(rt, sched)
	if err != nil {
		log.Fatal(err)
	}
	exec, err := rgml.NewExecutorWith(rt,
		rgml.WithCheckpointInterval(5),
		rgml.WithRestoreMode(rgml.ReplaceElastic),
		rgml.WithChaos(eng),
	)
	if err != nil {
		log.Fatal(err)
	}

	app, err := rgml.NewLogReg(rt, rgml.LogRegConfig{
		Examples: examples, Features: features, Iterations: iters, Seed: 99,
	}, exec.ActiveGroup())
	if err != nil {
		log.Fatal(err)
	}
	if err := exec.Run(app); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chaos kills: %s\n", eng.Signature())

	m := exec.Metrics()
	st := rt.Stats()
	fmt.Printf("finished on %v\n", exec.ActiveGroup())
	fmt.Printf("failures: %d, elastic places created: %d, restores: %d\n",
		st.PlacesKilled, st.PlacesAdded, m.Restores)
	fmt.Printf("final training loss: %.4f\n", app.Loss())
}
