package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/rgml/rgml/internal/apps"
	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
)

// ChaosSpec configures one chaos campaign: an application run repeatedly
// under a declarative fault schedule, once per seed, each run verified
// against a failure-free reference.
type ChaosSpec struct {
	// App is the benchmark application under test.
	App AppName
	// Places is the active place count; the problem is weak-scaled to it.
	Places int
	// Schedule is the fault schedule in the chaos DSL (chaos.Parse).
	Schedule string
	// Seeds are the engine seeds to sweep; each seed is one run. Empty
	// means {1}.
	Seeds []uint64
	// Mode is the restoration mode (default Shrink).
	Mode core.RestoreMode
	// Spares reserves extra places (beyond Places) for ReplaceRedundant.
	Spares int
	// Timeout bounds each run (0 means 30s); a run that exceeds it is
	// canceled through the executor's context and reported as unsurvived.
	Timeout time.Duration
}

// ChaosRun is the outcome of one seeded run of a campaign.
type ChaosRun struct {
	Seed uint64 `json:"seed"`
	// Survived is true when the run completed all its iterations despite
	// the schedule (recovering as needed).
	Survived bool   `json:"survived"`
	Error    string `json:"error,omitempty"`
	// Verified is true when the final iterate matched the failure-free
	// reference run.
	Verified bool `json:"verified"`
	// Signature is the injected kill log ("2@commit:p1,5@restore:p3") —
	// identical across runs with the same seed and schedule.
	Signature       string  `json:"signature"`
	Kills           int     `json:"kills"`
	Flakes          int64   `json:"flakes"`
	Restores        int64   `json:"restores"`
	RestoreAttempts int64   `json:"restoreAttempts"`
	ReplayedSteps   int64   `json:"replayedSteps"`
	ReplicaRetries  int64   `json:"replicaRetries"`
	ReplicaDropped  int64   `json:"replicaDropped"`
	DurationMS      float64 `json:"durationMS"`
}

// ChaosReport is the per-campaign JSON document rgmlbench emits.
type ChaosReport struct {
	// Environment names the host and the runtime configuration the
	// campaign ran under (finish, store, transport, compression).
	Environment map[string]string `json:"environment"`

	App      string     `json:"app"`
	Places   int        `json:"places"`
	Spares   int        `json:"spares,omitempty"`
	Mode     string     `json:"mode"`
	Schedule string     `json:"schedule"`
	Runs     []ChaosRun `json:"runs"`
	Survived int        `json:"survivedRuns"`
	Verified int        `json:"verifiedRuns"`
	Total    int        `json:"totalRuns"`
}

// Failed reports whether any run of the campaign ended unsurvived or with
// a wrong final iterate.
func (r ChaosReport) Failed() bool {
	return r.Survived != r.Total || r.Verified != r.Total
}

// ChaosCampaign executes spec: a failure-free reference run first, then
// one schedule-driven run per seed, each compared against the reference.
func (c Config) ChaosCampaign(spec ChaosSpec) (ChaosReport, error) {
	if spec.Places < 2 {
		return ChaosReport{}, fmt.Errorf("bench: chaos campaign needs at least 2 places, got %d", spec.Places)
	}
	sched, err := chaos.Parse(spec.Schedule)
	if err != nil {
		return ChaosReport{}, err
	}
	seeds := spec.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	timeout := spec.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	ref, err := c.chaosReference(spec)
	if err != nil {
		return ChaosReport{}, fmt.Errorf("bench: reference run: %w", err)
	}
	rep := ChaosReport{
		Environment: c.runMeta(),

		App:      string(spec.App),
		Places:   spec.Places,
		Spares:   spec.Spares,
		Mode:     spec.Mode.String(),
		Schedule: sched.String(),
		Total:    len(seeds),
	}
	for _, seed := range seeds {
		run := c.chaosRun(spec, sched, seed, timeout, ref)
		if run.Survived {
			rep.Survived++
		}
		if run.Verified {
			rep.Verified++
		}
		rep.Runs = append(rep.Runs, run)
		c.progressf("chaos %s seed=%d survived=%v verified=%v kills=[%s]",
			spec.App, seed, run.Survived, run.Verified, run.Signature)
	}
	return rep, nil
}

// chaosReference runs the application failure-free and returns its final
// iterate.
func (c Config) chaosReference(spec ChaosSpec) (la.Vector, error) {
	rt, err := c.newRuntime(spec.Places, true, nil)
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown()
	exec, err := core.New(rt, core.WithCheckpointInterval(c.Scale.CheckpointInterval))
	if err != nil {
		return nil, err
	}
	app, err := c.newResilient(spec.App, rt, exec.ActiveGroup(), spec.Places)
	if err != nil {
		return nil, err
	}
	if err := exec.Run(app); err != nil {
		return nil, err
	}
	v, err := apps.FinalIterate(app)
	if err != nil {
		return nil, err
	}
	return append(la.Vector(nil), v...), nil
}

// chaosRun executes one seeded schedule-driven run.
func (c Config) chaosRun(spec ChaosSpec, sched chaos.Schedule, seed uint64, timeout time.Duration, ref la.Vector) ChaosRun {
	run := ChaosRun{Seed: seed}
	fail := func(err error) ChaosRun {
		run.Error = err.Error()
		return run
	}
	reg := obs.NewRegistry()
	rt, err := c.newRuntime(spec.Places+spec.Spares, true, reg)
	if err != nil {
		return fail(err)
	}
	defer rt.Shutdown()
	eng, err := chaos.New(rt, sched, chaos.WithSeed(seed))
	if err != nil {
		return fail(err)
	}
	exec, err := core.New(rt,
		core.WithCheckpointInterval(c.Scale.CheckpointInterval),
		core.WithRestoreMode(spec.Mode),
		core.WithSpares(spec.Spares),
		core.WithObs(reg),
		core.WithChaos(eng),
	)
	if err != nil {
		return fail(err)
	}
	app, err := c.newResilient(spec.App, rt, exec.ActiveGroup(), spec.Places)
	if err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	t0 := time.Now()
	runErr := exec.RunContext(ctx, app)
	run.DurationMS = float64(time.Since(t0).Microseconds()) / 1000

	kills := eng.Kills()
	run.Kills = len(kills)
	run.Signature = eng.Signature()
	run.Flakes = eng.Flakes()
	m := exec.Metrics()
	run.Restores = m.Restores
	run.RestoreAttempts = m.RestoreAttempts
	run.ReplayedSteps = m.ReplayedSteps
	run.ReplicaRetries = reg.Counter("snapshot.replicas.retries").Value()
	run.ReplicaDropped = reg.Counter("snapshot.replicas.dropped").Value()
	if runErr != nil {
		return fail(runErr)
	}
	run.Survived = true
	got, err := apps.FinalIterate(app)
	if err != nil {
		return fail(err)
	}
	run.Verified = iteratesMatch(ref, got)
	if !run.Verified {
		run.Error = "final iterate diverged from failure-free reference"
	}
	return run
}

// iteratesMatch compares a run's final iterate against the reference. The
// reductions all evaluate at the duplicated vectors' root place, so
// recovery paths reproduce the reference essentially exactly; the epsilon
// only absorbs repartitioned segment sums after a rebalance. A NaN or
// ±Inf element on either side never matches: a diverged run must not
// verify against a diverged reference.
func iteratesMatch(ref, got la.Vector) bool {
	if len(ref) != len(got) || apps.CheckFinite(ref) != nil || apps.CheckFinite(got) != nil {
		return false
	}
	for i := range ref {
		// Negated so that a NaN difference fails the comparison.
		if diff := math.Abs(ref[i] - got[i]); !(diff <= 1e-9*(1+math.Abs(ref[i]))) {
			return false
		}
	}
	return true
}

// WriteChaosReport renders the campaign report as indented JSON.
func WriteChaosReport(w io.Writer, rep ChaosReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
