package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/obs"
)

// RestoreMode selects how the executor adapts the application to the loss
// of places (paper section V-B). Every mode runs one restoration plan over
// one spare pool (see nextGroup); a mode is the pool policy that plan
// applies.
type RestoreMode int

const (
	// Shrink restores onto the surviving places, keeping the existing
	// data partitioning: the fast block-by-block restore, at the cost of
	// possible load imbalance (Fig. 1-b). It never draws from the pool.
	Shrink RestoreMode = iota
	// ShrinkRebalance restores onto the surviving places and repartitions
	// for even load, paying the sub-block overlap restore (Fig. 1-c). It
	// never draws from the pool.
	ShrinkRebalance
	// ReplaceRedundant substitutes each failed place in position with a
	// live spare from the pool reserved at start (Config.Spares), keeping
	// the group size and the data distribution. The pool never refills:
	// dead places it cannot cover are shrunk away per Config.Fallback.
	ReplaceRedundant
	// ReplaceElastic is ReplaceRedundant over a pool that refills: when
	// the live spares cannot cover the dead places it creates the
	// shortfall (Elastic X10), the paper's future-work fourth mode. If
	// creation fails it degrades exactly as an exhausted ReplaceRedundant
	// pool does.
	ReplaceElastic
)

// replaces reports whether the mode draws dead places' replacements from
// the spare pool.
func (m RestoreMode) replaces() bool { return m == ReplaceRedundant || m == ReplaceElastic }

// String implements fmt.Stringer.
func (m RestoreMode) String() string {
	switch m {
	case Shrink:
		return "shrink"
	case ShrinkRebalance:
		return "shrink-rebalance"
	case ReplaceRedundant:
		return "replace-redundant"
	case ReplaceElastic:
		return "replace-elastic"
	default:
		return fmt.Sprintf("RestoreMode(%d)", int(m))
	}
}

// Config parameterizes an Executor.
type Config struct {
	// CheckpointInterval is the number of iterations between checkpoints;
	// a checkpoint is taken before iterations 0, k, 2k, …, except where a
	// restore just loaded the commit of that iteration. When zero and
	// MTTF is set, the interval is derived automatically; when both are
	// zero, checkpointing is disabled (the application then cannot
	// recover from failures).
	CheckpointInterval int
	// MTTF, when set (and CheckpointInterval is zero), enables automatic
	// checkpoint intervals from Young's formula: after each checkpoint
	// the executor recomputes sqrt(2·checkpointCost·MTTF) from the
	// measured mean checkpoint and step times and converts it to an
	// iteration count (paper section V: "Young's formula may be used to
	// determine the checkpointing interval").
	MTTF time.Duration
	// Mode is the restoration mode applied on failure.
	Mode RestoreMode
	// Fallback is how either replace mode shrinks away the dead places
	// its spare pool cannot cover (paper section V-B3); it must be Shrink
	// or ShrinkRebalance, and shrink modes ignore it.
	Fallback RestoreMode
	// Spares reserves the last Spares places of the runtime's initial
	// world as the spare pool of either replace mode; they are excluded
	// from the active group the application starts on. Shrink modes never
	// draw from the pool.
	Spares int
	// MaxRestores bounds recovery attempts per Run (guarding against
	// failure storms); 0 means 16.
	MaxRestores int
	// AfterStep, when non-nil, runs after each successful iteration with
	// the 1-based count of completed iterations. Benchmarks use it to
	// inject failures at a chosen iteration.
	AfterStep func(iter int64)
	// Obs, when non-nil, is the observability registry the executor
	// records into. When nil, the executor uses the runtime's registry
	// (apgas.Config.Obs) if one was configured, and otherwise creates a
	// private registry — Metrics is always a live view over a registry.
	Obs *obs.Registry
	// Chaos, when non-nil, is the fault-injection engine the executor
	// drives: armed for the duration of each run (and disarmed again when
	// the run returns), advanced to the executor's iteration once per loop
	// pass, and consulted at the step, commit and restore fault points.
	Chaos *chaos.Engine
}

// Metrics reports where the executor spent its time; the benchmark
// harness derives Table IV's checkpoint/restore percentages from it. It is
// a point-in-time view over the executor's observability registry (the
// "core.*" instruments), not an independent set of fields.
//
// Accounting semantics:
//
//   - StepTime, CheckpointTime and RestoreTime are wall-clock time spent
//     in the three phases and are mutually non-overlapping; their sum is
//     at most Total. A recovery that needs several attempts (failures
//     during restore) charges RestoreTime once for the whole recovery —
//     nested attempts are never double-counted.
//   - Restores counts recoveries that succeeded; RestoreAttempts counts
//     every attempt, including ones aborted by a further failure, so
//     RestoreAttempts ≥ Restores. Each attempt also emits one
//     "core.restore.attempt" trace event.
//   - StepTime includes the partial time of steps aborted by a failure;
//     Steps counts only completed steps.
type Metrics struct {
	Steps       int64
	Checkpoints int64
	// Restores counts recoveries that completed successfully.
	Restores int64
	// RestoreAttempts counts individual restore attempts, including those
	// interrupted by further failures and retried.
	RestoreAttempts int64
	// ReplayedSteps counts iterations re-executed after rollbacks.
	ReplayedSteps  int64
	StepTime       time.Duration
	CheckpointTime time.Duration
	RestoreTime    time.Duration
	Total          time.Duration
}

// Executor runs an IterativeApp under the resilient framework (paper
// section V-A3): it executes Step in a loop, takes periodic checkpoints,
// and restores from the latest checkpoint when a place failure is
// detected.
type Executor struct {
	rt     *apgas.Runtime
	cfg    Config
	store  *AppResilientStore
	active apgas.PlaceGroup
	spares apgas.PlaceGroup
	iter   int64
	reg    *obs.Registry
	in     execInstr
	// lastCkpt and autoIters drive the Young-formula automatic interval.
	lastCkpt  int64
	autoIters int64
	// collectPending asks for one background garbage collection after
	// the first step that follows a recovery. A solver whose steps barely
	// allocate runs almost no collection of its own, so each recovery's
	// garbage stays until the heap doubles: without this cycle, LogReg
	// (4 places, 5 MB blocks, six recoveries in 1 200 steps) ran one
	// collection per run after setup while its heap grew from 68 to
	// 132 MB, and ended with 74 instead of 57 MB live after a forced
	// collection. One cycle frees a recovery's garbage, as a real place's
	// memory goes with its process; pooled buffers stay until a second
	// one, so the next recovery still finds them. Waiting for a step
	// keeps the cycle off the restore.
	collectPending bool
}

// execInstr holds the executor's observability handles (the "core.*"
// namespace), resolved once at construction.
type execInstr struct {
	steps           *obs.Counter   // core.steps
	replayed        *obs.Counter   // core.steps.replayed
	checkpoints     *obs.Counter   // core.checkpoints
	ckptFailures    *obs.Counter   // core.checkpoints.failed
	restores        *obs.Counter   // core.restores
	restoreAttempts *obs.Counter   // core.restore.attempts
	failedAttempts  *obs.Counter   // core.restore.attempts.failed
	stepDur         *obs.Histogram // core.step.duration
	ckptDur         *obs.Histogram // core.checkpoint.duration
	restoreDur      *obs.Histogram // core.restore.duration
	restorePlan     *obs.Histogram // core.restore.plan (nextGroup, place creation included)
	restoreApply    *obs.Histogram // core.restore.apply (app.Restore)
	runNS           *obs.Counter   // core.run.ns
	youngRecals     *obs.Counter   // core.young.recalibrations
	youngIters      *obs.Gauge     // core.young.interval_iters
	sparesFree      *obs.Gauge     // core.spares.available
	refillFailed    *obs.Counter   // core.spares.refill_failed
	shrunkPlaces    *obs.Counter   // core.restore.shrunk_places
	activeSize      *obs.Gauge     // core.places.active
}

func newExecInstr(reg *obs.Registry) execInstr {
	return execInstr{
		steps:           reg.Counter("core.steps"),
		replayed:        reg.Counter("core.steps.replayed"),
		checkpoints:     reg.Counter("core.checkpoints"),
		ckptFailures:    reg.Counter("core.checkpoints.failed"),
		restores:        reg.Counter("core.restores"),
		restoreAttempts: reg.Counter("core.restore.attempts"),
		failedAttempts:  reg.Counter("core.restore.attempts.failed"),
		stepDur:         reg.Histogram("core.step.duration"),
		ckptDur:         reg.Histogram("core.checkpoint.duration"),
		restoreDur:      reg.Histogram("core.restore.duration"),
		restorePlan:     reg.Histogram("core.restore.plan"),
		restoreApply:    reg.Histogram("core.restore.apply"),
		runNS:           reg.Counter("core.run.ns"),
		youngRecals:     reg.Counter("core.young.recalibrations"),
		youngIters:      reg.Gauge("core.young.interval_iters"),
		sparesFree:      reg.Gauge("core.spares.available"),
		refillFailed:    reg.Counter("core.spares.refill_failed"),
		shrunkPlaces:    reg.Counter("core.restore.shrunk_places"),
		activeSize:      reg.Gauge("core.places.active"),
	}
}

// New builds an executor over rt's initial world from functional options,
// reserving the WithSpares places as the replace modes' spare pool. Zero
// options give the defaults documented on Config.
func New(rt *apgas.Runtime, opts ...Option) (*Executor, error) {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	world := rt.World()
	if cfg.Spares < 0 || cfg.Spares >= world.Size() {
		return nil, fmt.Errorf("core: %d spares of %d places", cfg.Spares, world.Size())
	}
	if cfg.CheckpointInterval < 0 {
		return nil, fmt.Errorf("core: negative checkpoint interval")
	}
	switch cfg.Fallback {
	case Shrink, ShrinkRebalance:
	default:
		return nil, fmt.Errorf("core: fallback mode must be shrink or shrink-rebalance, got %v", cfg.Fallback)
	}
	if cfg.MaxRestores == 0 {
		cfg.MaxRestores = 16
	}
	reg := cfg.Obs
	if reg == nil {
		reg = rt.Obs()
	}
	if reg == nil {
		// Metrics is a view over the registry, so the executor always has
		// one, even when the caller did not ask for instrumentation.
		reg = obs.NewRegistry()
	}
	split := world.Size() - cfg.Spares
	e := &Executor{
		rt:     rt,
		cfg:    cfg,
		store:  NewAppResilientStore(),
		active: apgas.PlaceGroup(world[:split]).Clone(),
		spares: apgas.PlaceGroup(world[split:]).Clone(),
		reg:    reg,
		in:     newExecInstr(reg),
	}
	e.store.instrument(reg)
	if eng := cfg.Chaos; eng != nil {
		e.store.setCommitHook(func() error { return eng.At(chaos.PointCommit) })
	}
	e.in.sparesFree.Set(int64(cfg.Spares))
	e.in.activeSize.Set(int64(split))
	return e, nil
}

// ActiveGroup returns the places the application currently runs on.
// Applications call this at construction time to build their GML objects.
func (e *Executor) ActiveGroup() apgas.PlaceGroup { return e.active.Clone() }

// Store returns the executor's application resilient store.
func (e *Executor) Store() *AppResilientStore { return e.store }

// Registry returns the observability registry the executor records into:
// the one from Config.Obs, else the runtime's, else a private registry.
// The benchmark harness derives Table IV's percentages from it and the
// -metrics flag of rgmlrun/rgmlbench exports it.
func (e *Executor) Registry() *obs.Registry { return e.reg }

// Metrics returns a point-in-time view over the executor's registry (see
// the Metrics type for the accounting semantics).
func (e *Executor) Metrics() Metrics {
	return Metrics{
		Steps:           e.in.steps.Value(),
		Checkpoints:     e.in.checkpoints.Value(),
		Restores:        e.in.restores.Value(),
		RestoreAttempts: e.in.restoreAttempts.Value(),
		ReplayedSteps:   e.in.replayed.Value(),
		StepTime:        e.in.stepDur.Sum(),
		CheckpointTime:  e.in.ckptDur.Sum(),
		RestoreTime:     e.in.restoreDur.Sum(),
		Total:           time.Duration(e.in.runNS.Value()),
	}
}

// Run drives app until IsFinished, surviving place failures when
// checkpointing is enabled. It returns the first unrecoverable error. It
// is RunContext with a background context.
func (e *Executor) Run(app IterativeApp) error {
	return e.RunContext(context.Background(), app)
}

// RunContext is Run under a context: cancellation is observed between
// iterations (a step in flight completes first — the framework never
// abandons a distributed operation halfway) and surfaces as an error
// wrapping ErrCanceled. When a chaos engine is configured it is armed for
// exactly the duration of this call, so schedules cannot shoot down
// application construction or post-run teardown.
func (e *Executor) RunContext(ctx context.Context, app IterativeApp) error {
	start := time.Now()
	defer func() { e.in.runNS.Add(int64(time.Since(start))) }()
	if eng := e.cfg.Chaos; eng != nil {
		eng.Arm()
		defer eng.Disarm()
	}
	attempts := 0
	for !app.IsFinished() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: run canceled at iteration %d: %w", e.iter, ErrCanceled)
		}
		e.chaosAdvance()
		if e.shouldCheckpoint() {
			if e.store.HasSnapshot() && e.iter == e.store.SnapshotIter() {
				// A restore just rolled back to this iteration: the commit
				// already holds exactly this state, and the restore's
				// repair has healed it toward the new group.
				e.reg.Trace("core.checkpoint.skipped", e.iter, 0)
			} else if err := e.checkpoint(app); err != nil {
				if !apgas.IsDeadPlace(err) {
					return fmt.Errorf("core: checkpoint at iteration %d: %w", e.iter, err)
				}
				if err := e.recover(app, &attempts); err != nil {
					return err
				}
				continue
			}
		}
		if err := e.chaosAt(chaos.PointStep); err != nil {
			return err
		}
		t0 := time.Now()
		err := app.Step()
		e.in.stepDur.Observe(time.Since(t0))
		if err != nil {
			if !apgas.IsDeadPlace(err) {
				return fmt.Errorf("core: step at iteration %d: %w", e.iter, err)
			}
			if err := e.recover(app, &attempts); err != nil {
				return err
			}
			continue
		}
		e.iter++
		e.in.steps.Inc()
		if e.collectPending {
			e.collectPending = false
			go runtime.GC()
		}
		if e.cfg.AfterStep != nil {
			e.cfg.AfterStep(e.iter)
		}
	}
	return nil
}

// chaosAdvance moves the configured chaos engine's iteration clock to the
// executor's; a no-op without an engine.
func (e *Executor) chaosAdvance() {
	if eng := e.cfg.Chaos; eng != nil {
		eng.Advance(e.iter)
	}
}

// chaosAt fires one of the executor-serialized chaos points. A place it
// kills is observed by the next distributed operation, which starts
// recovery; its error (a crash the failure detector never reported) ends
// the run.
func (e *Executor) chaosAt(p chaos.Point) error {
	if eng := e.cfg.Chaos; eng != nil {
		return eng.At(p)
	}
	return nil
}

// shouldCheckpoint decides whether to checkpoint before the next step:
// the fixed schedule when CheckpointInterval is set, the Young-derived
// schedule when MTTF is set, no checkpoints otherwise.
func (e *Executor) shouldCheckpoint() bool {
	if k := int64(e.cfg.CheckpointInterval); k > 0 {
		return e.iter%k == 0
	}
	if e.cfg.MTTF <= 0 {
		return false
	}
	if e.in.checkpoints.Value() == 0 {
		return true // always secure an initial recovery point
	}
	// Recalibrate at decision time, once step timings exist.
	e.updateAutoInterval()
	return e.iter-e.lastCkpt >= e.autoIters
}

// AutoInterval reports the current Young-derived checkpoint interval in
// iterations (0 when the automatic mode is off or not yet calibrated).
func (e *Executor) AutoInterval() int64 { return e.autoIters }

// updateAutoInterval recalibrates the Young interval from the measured
// mean checkpoint and step costs.
func (e *Executor) updateAutoInterval() {
	prev := e.autoIters
	defer func() {
		e.in.youngIters.Set(e.autoIters)
		if e.autoIters != prev {
			e.in.youngRecals.Inc()
			e.reg.Trace("core.young.recalibrated", e.autoIters, prev)
		}
	}()
	steps, ckpts := e.in.steps.Value(), e.in.checkpoints.Value()
	if e.cfg.MTTF <= 0 || steps == 0 || ckpts == 0 {
		e.autoIters = 1
		return
	}
	avgStep := e.in.stepDur.Sum() / time.Duration(steps)
	avgCkpt := e.in.ckptDur.Sum() / time.Duration(ckpts)
	opt := YoungInterval(avgCkpt, e.cfg.MTTF)
	if avgStep <= 0 {
		e.autoIters = 1
		return
	}
	iters := int64(opt / avgStep)
	if iters < 1 {
		iters = 1
	}
	e.autoIters = iters
}

// checkpoint takes one application checkpoint, cancelling it on failure.
func (e *Executor) checkpoint(app IterativeApp) error {
	t0 := time.Now()
	defer func() { e.in.ckptDur.Observe(time.Since(t0)) }()
	e.store.SetIteration(e.iter)
	if err := app.Checkpoint(e.store); err != nil {
		e.store.CancelSnapshot()
		e.in.ckptFailures.Inc()
		e.reg.Trace("core.checkpoint.failed", e.iter, 0)
		return err
	}
	e.in.checkpoints.Inc()
	e.lastCkpt = e.iter
	e.reg.Trace("core.checkpoint", e.iter, e.in.checkpoints.Value())
	return nil
}

// recover rolls the application back to the committed checkpoint on a new
// place group chosen by the restoration mode. Additional failures during
// recovery trigger further attempts, iteratively, up to MaxRestores across
// the whole run (attempts is shared with Run). The recovery's wall time is
// charged to RestoreTime exactly once, no matter how many attempts it
// takes; every attempt increments RestoreAttempts and emits one
// "core.restore.attempt" trace event.
func (e *Executor) recover(app IterativeApp, attempts *int) error {
	if !e.store.HasSnapshot() {
		return ErrNoSnapshot
	}
	t0 := time.Now()
	defer func() { e.in.restoreDur.Observe(time.Since(t0)) }()

	snapIter := e.store.SnapshotIter()
	for {
		*attempts++
		if *attempts > e.cfg.MaxRestores {
			return fmt.Errorf("core: giving up after %d restore attempts: %w", e.cfg.MaxRestores, ErrRestoreBudget)
		}
		e.in.restoreAttempts.Inc()
		e.reg.Trace("core.restore.attempt", int64(*attempts), snapIter)
		planStart := time.Now()
		plan, err := e.nextGroup()
		e.in.restorePlan.Observe(time.Since(planStart))
		if err != nil {
			return err
		}
		// Restore fault point: the plan is final but the application has
		// not restored yet, so a kill here lands on a group member
		// mid-restore and forces a further attempt.
		if err := e.chaosAt(chaos.PointRestore); err != nil {
			return err
		}
		e.store.setGroup(plan.active)
		applyStart := time.Now()
		err = app.Restore(plan.active, e.store, snapIter, plan.rebalance)
		e.in.restoreApply.Observe(time.Since(applyStart))
		if err != nil {
			if apgas.IsDeadPlace(err) {
				// Another place died during recovery: try again. The plan
				// is discarded without being committed, so any spares it
				// would have consumed stay in the pool for the retry
				// (minus those that themselves died, which the next
				// nextGroup filters out).
				e.in.failedAttempts.Inc()
				e.reg.Trace("core.restore.attempt.failed", int64(*attempts), snapIter)
				continue
			}
			return fmt.Errorf("core: restore at iteration %d: %w", snapIter, err)
		}
		e.active = plan.active
		e.spares = plan.spares
		e.in.sparesFree.Set(int64(e.rt.Live(e.spares).Size()))
		e.in.activeSize.Set(int64(e.active.Size()))
		e.in.shrunkPlaces.Add(int64(plan.shrunk))
		e.in.replayed.Add(e.iter - snapIter)
		e.iter = snapIter
		e.lastCkpt = snapIter
		e.in.restores.Inc()
		e.reg.Trace("core.restore.success", int64(*attempts), snapIter)
		e.collectPending = true
		return nil
	}
}

// groupPlan is the outcome of one restoration-mode decision: the group to
// restore onto, the spare pool as it should look if the restore succeeds,
// whether the application should repartition, and how many dead places
// were shrunk away rather than replaced. Nothing in the plan is applied to
// the executor until the restore attempt actually succeeds — in
// particular, spares named in active are not removed from the pool by
// planning alone, so a failed attempt cannot leak them. For the same
// reason, places that an elastic refill creates join the pool at once.
type groupPlan struct {
	active    apgas.PlaceGroup
	spares    apgas.PlaceGroup
	rebalance bool
	shrunk    int
}

// nextGroup plans the new active group, one path for every mode. The
// replace modes draw the live spares of the pool, and ReplaceElastic first
// refills a short pool by creating places; shrink modes draw nothing. The
// first dead places the drawn spares cover are replaced in position and
// the rest are shrunk away under the shrink policy: the mode itself, or
// Config.Fallback for a replace mode. A failed refill is counted and the
// plan goes on with the pool as it is, so it degrades exactly as an
// exhausted ReplaceRedundant pool does; a replace-mode plan that shrinks
// emits one "core.restore.degraded" trace event (a = places shrunk away,
// b = places replaced).
func (e *Executor) nextGroup() (groupPlan, error) {
	var dead []apgas.Place
	for _, p := range e.active {
		if e.rt.IsDead(p) {
			dead = append(dead, p)
		}
	}
	if len(dead) == 0 {
		// The failure hit a place outside the active group (e.g. a spare):
		// the data distribution is unaffected; restore in place.
		return groupPlan{active: e.active.Clone(), spares: e.spares}, nil
	}
	policy, pool, take := e.cfg.Mode, e.rt.Live(e.spares), 0
	if policy.replaces() {
		policy = e.cfg.Fallback
		if short := len(dead) - len(pool); short > 0 && e.cfg.Mode == ReplaceElastic {
			if added, err := e.rt.AddPlaces(short); err != nil {
				e.in.refillFailed.Inc()
			} else {
				// The created places join the pool before the attempt, so
				// an attempt that fails leaves them to the retry.
				pool = append(pool, added...)
				e.spares = pool
			}
		}
		take = min(len(dead), len(pool))
		if take < len(dead) {
			e.reg.Trace("core.restore.degraded", int64(len(dead)-take), int64(take))
		}
	}
	active, err := e.active.Replace(dead[:take], pool[:take])
	if err != nil {
		return groupPlan{}, err
	}
	if active = active.Without(dead[take:]...); active.Size() == 0 {
		return groupPlan{}, ErrGroupExhausted
	}
	shrunk := len(dead) - take
	return groupPlan{
		active:    active,
		spares:    pool[take:],
		rebalance: shrunk > 0 && policy == ShrinkRebalance,
		shrunk:    shrunk,
	}, nil
}
