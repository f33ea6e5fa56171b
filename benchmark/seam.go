package main

import (
	"sort"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/obs"
)

// procStart is the earliest instant this process can observe; set-up time
// and every span timestamp count from it.
var procStart = time.Now()

func sinceStart() int64 { return int64(time.Since(procStart)) }

// Phase kinds recorded at the core.IterativeApp seam.
const (
	phStep = iota
	phCkpt
	phRestore
	numPhases
)

var phaseNames = [numPhases]string{"step", "ckpt", "restore"}

// phase is one call the executor made into the application: which
// method, when (ns since procStart), whether it succeeded, and the
// application iteration it started at.
type phase struct {
	kind       int
	start, end int64
	ok         bool
	iter       int64
	replay     bool // a successful step the run had already completed once
}

// kill is one injected failure.
type kill struct {
	at       int64 // ns since procStart, just before the kill call
	detected int64 // ns until the runtime saw the place dead (SIGKILL only)
}

// seam wraps the application at the core.IterativeApp boundary — the one
// place every backend, mode and app passes through — and records every
// call the executor makes. It also owns the run's stop condition, so one
// executor can run the warm-up and then the measured iterations over the
// same application state.
//
// With layer instruments attached (traced runs) it additionally reads
// them at both ends of every phase and accumulates the differences per
// phase kind, which is how "bytes per checkpoint" and "tasks per
// iteration" are attributed without touching the instrumented code.
type seam struct {
	app   core.IterativeApp
	limit int64 // IsFinished once this many iterations completed
	iter  int64 // completed iterations (rolls back on Restore)
	high  int64 // most iterations ever completed

	phases []phase
	kills  []kill

	probes []probe
	before []int64
	acc    [numPhases + 1][]int64 // [numPhases] collects failed steps
}

// probe reads one number out of an obs instrument.
type probe struct {
	name string
	read func() int64
}

func counterProbe(reg *obs.Registry, name string) probe {
	c := reg.Counter(name)
	return probe{name, c.Value}
}

// histProbes yields <name>.count and <name>.ns for a duration histogram.
func histProbes(reg *obs.Registry, name string) []probe {
	h := reg.Histogram(name)
	return []probe{
		{name + ".count", h.Count},
		{name + ".ns", func() int64 { return int64(h.Sum()) }},
	}
}

func newSeam(app core.IterativeApp, phaseCap int) *seam {
	return &seam{app: app, phases: make([]phase, 0, phaseCap)}
}

func (s *seam) attach(probes []probe) {
	s.probes = probes
	s.before = make([]int64, len(probes))
	for k := range s.acc {
		s.acc[k] = make([]int64, len(probes))
	}
}

// accOf returns what the named probe accumulated over phases of one kind.
func (s *seam) accOf(kind int, name string) float64 {
	for i, p := range s.probes {
		if p.name == name {
			return float64(s.acc[kind][i])
		}
	}
	return 0
}

func (s *seam) begin() int64 {
	for i, p := range s.probes {
		s.before[i] = p.read()
	}
	return sinceStart()
}

func (s *seam) finish(kind int, start int64, iter int64, ok, replay bool) {
	end := sinceStart()
	s.phases = append(s.phases, phase{kind: kind, start: start, end: end, ok: ok, iter: iter, replay: replay})
	slot := kind
	if kind == phStep && !ok {
		slot = numPhases
	}
	for i, p := range s.probes {
		s.acc[slot][i] += p.read() - s.before[i]
	}
}

// IsFinished implements core.IterativeApp.
func (s *seam) IsFinished() bool { return s.iter >= s.limit || s.app.IsFinished() }

// Step implements core.IterativeApp.
func (s *seam) Step() error {
	t0 := s.begin()
	err := s.app.Step()
	replay := s.iter < s.high
	s.finish(phStep, t0, s.iter, err == nil, err == nil && replay)
	if err == nil {
		s.iter++
		if s.iter > s.high {
			s.high = s.iter
		}
	}
	return err
}

// Checkpoint implements core.IterativeApp.
func (s *seam) Checkpoint(store *core.AppResilientStore) error {
	t0 := s.begin()
	err := s.app.Checkpoint(store)
	s.finish(phCkpt, t0, s.iter, err == nil, false)
	return err
}

// Restore implements core.IterativeApp.
func (s *seam) Restore(newPG apgas.PlaceGroup, store *core.AppResilientStore, snapshotIter int64, rebalance bool) error {
	t0 := s.begin()
	err := s.app.Restore(newPG, store, snapshotIter, rebalance)
	s.finish(phRestore, t0, s.iter, err == nil, false)
	if err == nil {
		s.iter = snapshotIter
	}
	return err
}

// recovery is the timeline of one injected failure, all in ns.
type recovery struct {
	plan  int64 // kill → Restore entered (detection, failed step, group planning)
	apply int64 // the successful Restore call
	total int64 // kill → that Restore returned
}

// recoveries pairs every kill with the first successful Restore entered
// after it. ok is false when some kill was never recovered from.
func (s *seam) recoveries() (out []recovery, ok bool) {
	ph := s.phases
	for _, k := range s.kills {
		i := sort.Search(len(ph), func(i int) bool { return ph[i].start >= k.at })
		for i < len(ph) && !(ph[i].kind == phRestore && ph[i].ok) {
			i++
		}
		if i == len(ph) {
			return out, false
		}
		out = append(out, recovery{
			plan:  ph[i].start - k.at,
			apply: ph[i].end - ph[i].start,
			total: ph[i].end - k.at,
		})
	}
	return out, true
}
