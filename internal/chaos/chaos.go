// Package chaos is the framework's deterministic fault-injection engine
// and its one fault door: it drives apgas.Runtime.Kill, worker-process
// crashes (tcp) and transient replica-write faults from declarative,
// seed-reproducible schedules, at injection points woven into the
// executor's step/checkpoint/restore phases, the snapshot replica-write
// path and the apgas task spawn path.
//
// The engine turns the hand-placed `rt.Kill(p)` calls of the evaluation
// harness into replayable experiments: "kill place 3 at iteration 7",
// "kill a random non-zero place during a checkpoint commit with
// probability p", "burst-kill k places in one window", "make replica
// writes flake". Same seed + same schedule ⇒ the same kill sequence, which
// is what makes recovery bugs found by a chaos campaign reproducible.
//
// # Determinism
//
// Every rule owns a private PRNG stream seeded from (engine seed, rule
// index), and rule evaluation is serialized under the engine's lock, so a
// schedule's decisions do not depend on how many unrelated rules exist or
// on scheduling noise at *serialized* points: Step, Commit and Restore all
// fire from the executor's single drive loop. Spawn and Replica fire
// concurrently from many tasks; for those points the set of fired rules
// and the victims drawn remain seed-deterministic, but which concurrent
// operation observes the injected fault can vary run to run. Campaigns
// that must reproduce bit-identical final states therefore pin their kill
// rules to serialized points (see TestChaosCampaignDeterminism).
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/obs"
)

// ErrInjected is the transient fault a flake rule injects into the
// operation at its point; retryable sites (snapshot replica puts) treat
// any non-nil injection as ErrInjected.
var ErrInjected = errors.New("chaos: injected transient fault")

// ErrCrashFailed is At's error when a crash rule could not fail-stop its
// victim: the victim's process body could not be killed, or its death was
// not reported within detectBound. The run must stop, not go on without
// the fault its schedule asked for or against a place the runtime still
// thinks alive.
var ErrCrashFailed = errors.New("chaos: crash failed")

// detectBound is how long a crash waits for the failure detector.
var detectBound = 10 * time.Second

// processKiller is tcp.Transport.KillWorkerProcess, found by a type
// assertion so that transport.Transport gains no method.
type processKiller interface{ KillWorkerProcess(place int) error }

// Kill records one injected fail-stop.
type Kill struct {
	// Iteration is the executor iteration current when the kill fired
	// (-1 when the executor was not running yet).
	Iteration int64
	// Place is the victim.
	Place apgas.Place
	// Point is where the kill fired.
	Point Point
}

// String renders the kill as "iter@point:pID".
func (k Kill) String() string {
	return fmt.Sprintf("%d@%s:p%d", k.Iteration, k.Point, k.Place.ID)
}

// Engine evaluates a Schedule against a runtime. It implements
// apgas.FaultInjector and installs itself on the runtime at construction;
// the executor drives the serialized points and the iteration clock.
//
// The engine starts disarmed: no rule fires until Arm is called. The
// executor arms it for the duration of RunContext, so schedules cannot
// shoot down application construction unless a caller arms the engine by
// hand.
type Engine struct {
	rt     *apgas.Runtime
	bodies processKiller // nil on a backend without process bodies
	seed   uint64

	mu     sync.Mutex
	armed  bool
	iter   int64 // executor iteration; -1 outside a run
	rules  []*ruleState
	kills  []Kill
	flakes int64

	// Observability ("chaos.*" namespace; nil-safe).
	killCtr  *obs.Counter // chaos.kills
	flakeCtr *obs.Counter // chaos.flakes
	fireCtr  *obs.Counter // chaos.rules.fired
	reg      *obs.Registry
}

// ruleState is a rule plus its mutable evaluation state.
type ruleState struct {
	Rule
	rng   *rand.Rand
	fired int
}

// Option configures an Engine.
type Option func(*Engine)

// WithSeed sets the seed of the engine's deterministic decision streams
// (victim selection and probabilistic firing). The default seed is 1.
func WithSeed(seed uint64) Option {
	return func(e *Engine) { e.seed = seed }
}

// New builds an engine for sched over rt and installs it as the runtime's
// fault injector. The engine is disarmed until Arm (the executor arms it
// around RunContext). New fails on an empty or invalid schedule, on a
// non-resilient runtime, where Kill would be rejected anyway, and on a
// crash rule when the runtime's places have no process bodies to kill.
func New(rt *apgas.Runtime, sched Schedule, opts ...Option) (*Engine, error) {
	if len(sched) == 0 {
		return nil, errors.New("chaos: empty schedule")
	}
	if !rt.Resilient() {
		return nil, errors.New("chaos: runtime is not resilient; failures cannot be injected")
	}
	e := &Engine{rt: rt, seed: 1, iter: -1}
	e.bodies, _ = rt.Transport().(processKiller)
	for _, opt := range opts {
		opt(e)
	}
	reg := rt.Obs()
	e.reg = reg
	e.killCtr = reg.Counter("chaos.kills")
	e.flakeCtr = reg.Counter("chaos.flakes")
	e.fireCtr = reg.Counter("chaos.rules.fired")
	for i, r := range sched {
		r = r.normalize()
		if err := r.validate(); err != nil {
			return nil, fmt.Errorf("%w (rule %d)", err, i)
		}
		if r.Kind == KindCrash && e.bodies == nil {
			return nil, fmt.Errorf("chaos: crash needs places with process bodies; transport %q has none (rule %d)", rt.TransportName(), i)
		}
		// Each rule owns a private stream so its decisions are a pure
		// function of (seed, rule index, firing count) — adding a rule
		// never perturbs another rule's draws.
		src := rand.NewSource(int64(e.seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15))
		e.rules = append(e.rules, &ruleState{Rule: r, rng: rand.New(src)})
	}
	rt.SetInjector(e)
	return e, nil
}

// Seed returns the engine's seed.
func (e *Engine) Seed() uint64 { return e.seed }

// Schedule returns the engine's rules (normalized).
func (e *Engine) Schedule() Schedule {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(Schedule, len(e.rules))
	for i, rs := range e.rules {
		out[i] = rs.Rule
	}
	return out
}

// Arm enables rule evaluation. The executor arms the engine when a run
// starts; tests may arm it directly.
func (e *Engine) Arm() {
	e.mu.Lock()
	e.armed = true
	e.mu.Unlock()
}

// Disarm stops all rule evaluation (fault points become no-ops) without
// resetting fired counts or the kill log.
func (e *Engine) Disarm() {
	e.mu.Lock()
	e.armed = false
	e.iter = -1
	e.mu.Unlock()
}

// Advance moves the engine's iteration clock; the executor calls it once
// per drive-loop pass with its completed-iteration count.
func (e *Engine) Advance(iter int64) {
	e.mu.Lock()
	e.iter = iter
	e.mu.Unlock()
}

// At evaluates the serialized framework points (step, commit, restore).
// Flake rules never match there, so it returns non-nil only when a crash
// failed (ErrCrashFailed): the caller must fail the run.
func (e *Engine) At(p Point) error {
	return e.at(p, apgas.Place{ID: -1})
}

// Fault implements apgas.FaultInjector for the runtime-level points
// (spawn, replica).
func (e *Engine) Fault(point string, subject apgas.Place) error {
	return e.at(Point(point), subject)
}

// at is the single evaluation path. It holds the engine lock across rule
// evaluation AND the kills so that the log order matches the decision
// order exactly. A kill and a crash with the same keys log the same
// entry, so fingerprints compare across backends.
func (e *Engine) at(p Point, subject apgas.Place) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.armed {
		return nil
	}
	var transient error
	for _, rs := range e.rules {
		if rs.Point != p {
			continue
		}
		if rs.MaxFires >= 0 && rs.fired >= rs.MaxFires {
			continue
		}
		if rs.Iteration != AnyIteration && rs.Iteration != e.iter {
			continue
		}
		if rs.Prob > 0 && rs.Prob < 1 && rs.rng.Float64() >= rs.Prob {
			continue
		}
		rs.fired++
		e.fireCtr.Inc()
		if rs.Kind == KindFlake {
			e.flakes++
			e.flakeCtr.Inc()
			e.reg.Trace("chaos.flake", e.iter, int64(subject.ID))
			transient = ErrInjected
			continue
		}
		for i := 0; i < rs.Count; i++ {
			victim, ok := e.pickVictim(rs)
			if !ok {
				break // live non-zero population exhausted
			}
			for _, v := range e.spanVictims(victim, rs.Span) {
				if err := e.failStop(rs.Kind, v); err != nil {
					if rs.Kind == KindCrash {
						return err
					}
					continue // a kill racing shutdown or an already-dead victim
				}
				e.kills = append(e.kills, Kill{Iteration: e.iter, Place: v, Point: p})
				e.killCtr.Inc()
				e.reg.Trace("chaos.kill", e.iter, int64(v.ID))
			}
		}
	}
	return transient
}

// failStop kills v: a kill through Runtime.Kill, a crash by SIGKILLing
// v's process body and blocking until the failure detector has reported
// the death, so the next distributed operation observes it
// deterministically instead of racing detection. Every crash error is
// ErrCrashFailed. Callers hold e.mu.
func (e *Engine) failStop(kind Kind, v apgas.Place) error {
	if kind == KindKill {
		return e.rt.Kill(v)
	}
	if err := e.bodies.KillWorkerProcess(v.ID); err != nil {
		return fmt.Errorf("%w: %v: %v", ErrCrashFailed, v, err)
	}
	deadline := time.Now().Add(detectBound)
	for !e.rt.IsDead(v) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %v not reported dead within %v of its process being killed", ErrCrashFailed, v, detectBound)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// pickVictim resolves a rule's victim: the pinned place when set and still
// alive, else a draw from the live non-zero population using the rule's
// stream. Callers hold e.mu.
func (e *Engine) pickVictim(rs *ruleState) (apgas.Place, bool) {
	if rs.Place != RandomVictim {
		if rs.Place >= e.rt.NumPlaces() {
			return apgas.Place{}, false
		}
		p := apgas.Place{ID: rs.Place}
		if e.rt.IsDead(p) {
			return apgas.Place{}, false
		}
		return p, true
	}
	world := e.rt.World()
	live := make([]apgas.Place, 0, len(world))
	for _, p := range world {
		if p.ID != 0 {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return apgas.Place{}, false
	}
	return live[rs.rng.Intn(len(live))], true
}

// spanVictims widens one kill into a correlated failure: the victim plus
// the next span-1 live non-zero places by ascending ID, wrapping past the
// highest place. Consecutive places are exactly where the snapshot store
// keeps an entry's replicas or shards, so a span >= the policy's
// tolerance+1 defeats it — the schedule shape behind the double-failure
// acceptance tests. Callers hold e.mu.
func (e *Engine) spanVictims(victim apgas.Place, span int) []apgas.Place {
	out := []apgas.Place{victim}
	n := e.rt.NumPlaces()
	if span <= 1 || n <= 2 {
		return out
	}
	// Walk IDs 1..n-1 starting just after the victim, wrapping; each
	// non-zero place is visited at most once.
	for off := 1; off < n-1 && len(out) < span; off++ {
		id := (victim.ID+off-1)%(n-1) + 1
		p := apgas.Place{ID: id}
		if id == victim.ID || e.rt.IsDead(p) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Kills returns a copy of the injected-kill log, in firing order.
func (e *Engine) Kills() []Kill {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Kill(nil), e.kills...)
}

// Flakes returns how many transient faults have been injected.
func (e *Engine) Flakes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flakes
}

// Fired returns the total number of rule firings (kills and flakes).
func (e *Engine) Fired() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, rs := range e.rules {
		n += rs.fired
	}
	return n
}

// Signature renders the kill log compactly ("7@commit:p3,9@restore:p1"),
// the form campaign reports and determinism tests compare.
func (e *Engine) Signature() string {
	kills := e.Kills()
	parts := make([]string, len(kills))
	for i, k := range kills {
		parts[i] = k.String()
	}
	return strings.Join(parts, ",")
}
