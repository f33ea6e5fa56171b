package chaos

import (
	"fmt"
	"strconv"
	"strings"
)

// Point identifies an instrumented location in the framework where the
// engine can act. The executor fires Step/Commit/Restore from its
// single-threaded drive loop (deterministic evaluation order); Spawn and
// Replica fire concurrently from tasks (see the determinism notes on
// Engine).
type Point string

// The instrumented fault points.
const (
	// PointStep fires immediately before each iteration's Step call.
	PointStep Point = "step"
	// PointCommit fires inside AppResilientStore.Commit, after every
	// object of the checkpoint has been saved but before the pending
	// snapshot is promoted to the recovery point — the window where
	// ReStore-style systems historically break.
	PointCommit Point = "commit"
	// PointRestore fires during recovery, after the restoration mode has
	// planned the new place group but before the application's Restore
	// runs — a kill here aborts the attempt mid-restore and forces a
	// further attempt.
	PointRestore Point = "restore"
	// PointSpawn fires on every apgas task spawn (AsyncAt).
	PointSpawn Point = Point("spawn")
	// PointReplica fires on every snapshot backup put. Flake rules at
	// this point inject transient write failures that exercise the
	// snapshot layer's bounded retry-with-backoff.
	PointReplica Point = Point("replica")
)

func validPoint(p Point) bool {
	switch p {
	case PointStep, PointCommit, PointRestore, PointSpawn, PointReplica:
		return true
	}
	return false
}

// Kind discriminates what a matched rule does.
type Kind int

const (
	// KindKill fail-stops the victim place(s) via Runtime.Kill.
	KindKill Kind = iota
	// KindFlake injects a transient fault into the operation at the
	// point (honoured by retryable sites, i.e. replica writes); no place
	// dies.
	KindFlake
	// KindCrash SIGKILLs the victim places' process bodies (tcp only)
	// and waits for the failure detector to report the deaths.
	KindCrash
)

// AnyIteration makes a rule eligible at every iteration.
const AnyIteration int64 = -1

// RandomVictim selects a pseudo-random live non-zero place per firing,
// drawn from the rule's private deterministic stream.
const RandomVictim = -1

// Rule is one clause of a Schedule. The zero value is not valid; build
// rules through Parse or fill in at least Point.
type Rule struct {
	// Point is where the rule is evaluated.
	Point Point
	// Kind selects kill, crash or transient-fault behaviour.
	Kind Kind
	// Iteration restricts the rule to the executor iteration it names;
	// AnyIteration (-1) matches every iteration. Points that fire before
	// the executor starts (e.g. spawns during application construction)
	// see iteration -1 and therefore only match AnyIteration rules.
	Iteration int64
	// Place is the victim's place ID, or RandomVictim (-1) to draw a
	// live non-zero place from the rule's deterministic stream.
	Place int
	// Prob is the firing probability in (0,1]; 0 means 1 (always fire
	// when the rule matches).
	Prob float64
	// Count is the burst size: how many places one firing kills
	// (clamped to the live non-zero population). 0 means 1.
	Count int
	// Span widens each kill into a correlated failure: the victim plus
	// the next Span-1 live non-zero places by ascending ID (wrapping) die
	// in the same firing. Adjacent places are exactly where a k-replicated
	// or erasure-coded entry keeps its redundancy, so span kills model the
	// rack-level correlated failures that defeat naive placement. 0 means
	// 1 (just the victim).
	Span int
	// MaxFires bounds how many times the rule fires; 0 means 1 and
	// negative means unlimited.
	MaxFires int
}

// normalize applies the documented defaults.
func (r Rule) normalize() Rule {
	if r.Point == "" {
		if r.Kind == KindFlake {
			r.Point = PointReplica
		} else {
			r.Point = PointStep
		}
	}
	if r.Count <= 0 {
		r.Count = 1
	}
	if r.Span <= 0 {
		r.Span = 1
	}
	if r.MaxFires == 0 {
		r.MaxFires = 1
	}
	if r.Prob < 0 || r.Prob > 1 {
		r.Prob = 1
	}
	return r
}

// validate reports structural problems Parse and NewEngine reject.
func (r Rule) validate() error {
	if !validPoint(r.Point) {
		return fmt.Errorf("chaos: unknown point %q", r.Point)
	}
	if r.Kind == KindFlake && r.Point != PointReplica {
		return fmt.Errorf("chaos: flake rules only apply to the replica point, got %q", r.Point)
	}
	if r.Kind == KindFlake && r.Span > 1 {
		return fmt.Errorf("chaos: span only applies to kill rules")
	}
	if r.Kind == KindCrash && (r.Point == PointSpawn || r.Point == PointReplica) {
		return fmt.Errorf("chaos: crash rules only apply at the serialized points (step, commit, restore), got %q", r.Point)
	}
	if r.Place == 0 {
		return fmt.Errorf("chaos: place zero is immortal and cannot be a victim")
	}
	if r.Place < RandomVictim {
		return fmt.Errorf("chaos: invalid victim place %d", r.Place)
	}
	if r.Iteration < AnyIteration {
		return fmt.Errorf("chaos: invalid iteration %d", r.Iteration)
	}
	return nil
}

// String renders the rule in the Parse grammar, so a Schedule round-trips
// through its textual form (campaign reports embed it).
func (r Rule) String() string {
	verb := "kill"
	switch {
	case r.Kind == KindFlake:
		verb = "flake"
	case r.Kind == KindCrash:
		verb = "crash"
	case r.Count > 1:
		verb = "burst"
	}
	var args []string
	args = append(args, "point="+string(r.Point))
	if r.Iteration != AnyIteration {
		args = append(args, "iter="+strconv.FormatInt(r.Iteration, 10))
	}
	if r.Place != RandomVictim {
		args = append(args, "place="+strconv.Itoa(r.Place))
	}
	if r.Prob > 0 && r.Prob < 1 {
		args = append(args, "prob="+strconv.FormatFloat(r.Prob, 'g', -1, 64))
	}
	if r.Count > 1 {
		args = append(args, "k="+strconv.Itoa(r.Count))
	}
	if r.Span > 1 {
		args = append(args, "span="+strconv.Itoa(r.Span))
	}
	if r.MaxFires != 1 {
		args = append(args, "times="+strconv.Itoa(r.MaxFires))
	}
	return verb + "(" + strings.Join(args, ",") + ")"
}

// Schedule is an ordered list of rules; every matched rule of a point is
// evaluated at each firing, in declaration order.
type Schedule []Rule

// String renders the schedule in the Parse grammar.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, r := range s {
		parts[i] = r.String()
	}
	return strings.Join(parts, ";")
}

// Parse builds a Schedule from its compact textual form: semicolon-
// separated clauses `verb(key=value,...)`.
//
//	kill(place=3,iter=7)              kill place 3 at iteration 7
//	kill(point=commit,prob=0.5)       kill a random live non-zero place at
//	                                  a checkpoint commit, with prob 0.5
//	kill(point=restore)               kill a random place mid-restore
//	burst(k=3,iter=5)                 kill 3 random places at iteration 5
//	kill(iter=3,place=1,span=2)       correlated failure: place 1 and the
//	                                  next live place die together
//	flake(prob=0.3,times=5)           up to 5 transient replica-write faults
//	crash(iter=4,place=2)             SIGKILL place 2's tcp worker at iteration 4
//
// Verbs: kill, burst (kill with k>1), crash (kill's keys; tcp, serialized
// points only), flake (transient replica fault).
// Keys: point (step|commit|restore|spawn|replica), iter, place, prob,
// k (burst size), span (correlated adjacent kills per victim), times
// (max fires, -1 unlimited). Defaults: point=step (flake: replica),
// iter=any, place=random, prob=1, k=1, span=1, times=1.
func Parse(text string) (Schedule, error) {
	var sched Schedule
	for _, clause := range strings.Split(text, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		open := strings.IndexByte(clause, '(')
		if open < 0 || !strings.HasSuffix(clause, ")") {
			return nil, fmt.Errorf("chaos: malformed clause %q (want verb(k=v,...))", clause)
		}
		verb := strings.TrimSpace(clause[:open])
		r := Rule{Iteration: AnyIteration, Place: RandomVictim}
		switch verb {
		case "kill", "burst":
			r.Kind = KindKill
		case "crash":
			r.Kind = KindCrash
		case "flake":
			r.Kind = KindFlake
		default:
			return nil, fmt.Errorf("chaos: unknown verb %q (want kill, burst, crash or flake)", verb)
		}
		body := clause[open+1 : len(clause)-1]
		for _, kv := range strings.Split(body, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("chaos: malformed argument %q in %q", kv, clause)
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			var err error
			switch key {
			case "point":
				r.Point = Point(val)
			case "iter":
				r.Iteration, err = strconv.ParseInt(val, 10, 64)
			case "place":
				r.Place, err = strconv.Atoi(val)
			case "prob":
				r.Prob, err = strconv.ParseFloat(val, 64)
				if err == nil && (r.Prob <= 0 || r.Prob > 1) {
					err = fmt.Errorf("probability %v outside (0,1]", r.Prob)
				}
			case "k", "count":
				r.Count, err = strconv.Atoi(val)
			case "span":
				r.Span, err = strconv.Atoi(val)
			case "times":
				r.MaxFires, err = strconv.Atoi(val)
			default:
				return nil, fmt.Errorf("chaos: unknown key %q in %q", key, clause)
			}
			if err != nil {
				return nil, fmt.Errorf("chaos: bad %s in %q: %v", key, clause, err)
			}
		}
		if verb == "burst" && r.Count <= 1 {
			return nil, fmt.Errorf("chaos: burst clause %q needs k>1", clause)
		}
		r = r.normalize()
		if err := r.validate(); err != nil {
			return nil, fmt.Errorf("%w (in %q)", err, clause)
		}
		sched = append(sched, r)
	}
	if len(sched) == 0 {
		return nil, fmt.Errorf("chaos: empty schedule")
	}
	return sched, nil
}

// MustParse is Parse for tests and compiled-in schedules; it panics on
// error.
func MustParse(text string) Schedule {
	s, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return s
}
