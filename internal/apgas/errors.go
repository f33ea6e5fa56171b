package apgas

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// DeadPlaceError is the Go rendering of x10.lang.DeadPlaceException: it is
// delivered to a finish when a task could not run, or could not be confirmed
// to have completed, because the place it targeted has failed.
type DeadPlaceError struct {
	// Place is the failed place.
	Place Place
}

// Error implements the error interface.
func (e *DeadPlaceError) Error() string {
	return fmt.Sprintf("apgas: dead place %d", e.Place.ID)
}

// MultiError aggregates the exceptions collected by a finish. A finish may
// observe several failures (for example one DeadPlaceError per orphaned
// task); X10 delivers them as a MultipleExceptions value and so do we.
type MultiError struct {
	Errs []error
}

// Error implements the error interface.
func (m *MultiError) Error() string {
	if len(m.Errs) == 1 {
		return m.Errs[0].Error()
	}
	parts := make([]string, 0, len(m.Errs))
	for _, e := range m.Errs {
		parts = append(parts, e.Error())
	}
	return fmt.Sprintf("apgas: %d exceptions: %s", len(m.Errs), strings.Join(parts, "; "))
}

// Unwrap exposes the aggregated errors to errors.Is / errors.As.
func (m *MultiError) Unwrap() []error { return m.Errs }

// combineErrors returns nil, the single error, or a MultiError.
func combineErrors(errs []error) error {
	switch len(errs) {
	case 0:
		return nil
	case 1:
		return errs[0]
	default:
		return &MultiError{Errs: errs}
	}
}

// IsDeadPlace reports whether err contains a DeadPlaceError.
func IsDeadPlace(err error) bool {
	var dpe *DeadPlaceError
	return errors.As(err, &dpe)
}

// DeadPlaces extracts the distinct places reported dead by err, in
// ascending ID order. It understands MultiError aggregation.
func DeadPlaces(err error) []Place {
	seen := map[int]bool{}
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		var dpe *DeadPlaceError
		if errors.As(e, &dpe) {
			// errors.As finds only the first; handle aggregates explicitly.
		}
		switch v := e.(type) {
		case *DeadPlaceError:
			seen[v.Place.ID] = true
		case *MultiError:
			for _, sub := range v.Errs {
				walk(sub)
			}
		default:
			if u, ok := e.(interface{ Unwrap() error }); ok {
				walk(u.Unwrap())
			}
		}
	}
	walk(err)
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	places := make([]Place, len(ids))
	for i, id := range ids {
		places[i] = Place{ID: id}
	}
	return places
}

// ErrShutdown is returned by operations on a runtime that has been shut down.
var ErrShutdown = errors.New("apgas: runtime is shut down")

// ErrBadOption is the typed error wrapped by every functional-option
// validation failure (WithLedgerQueue with a non-positive capacity,
// WithFinishMode with an unknown mode, WithStorePolicy with an invalid
// geometry, ...). The failure is recorded at option-apply time and
// surfaced by New, so a bad value fails construction loudly
// instead of deadlocking or silently falling back to a default; callers
// classify with errors.Is(err, apgas.ErrBadOption).
var ErrBadOption = errors.New("apgas: invalid option")

// ErrCanceled is the typed cancellation error: FinishContext (and, one
// layer up, Executor.RunContext) wrap it when the caller's context is
// canceled or times out, so callers distinguish "you asked me to stop"
// from a real failure with errors.Is(err, ErrCanceled).
var ErrCanceled = errors.New("apgas: canceled by context")

// ErrPlaceZeroImmortal is returned by Runtime.Kill(place 0): the paper's
// resilient X10 assumes place zero never fails (its failure would be fatal
// to the whole application), so the failure injector refuses to kill it.
var ErrPlaceZeroImmortal = errors.New("apgas: place zero is immortal and cannot be killed")

// ErrNotResilient is returned by Runtime.Kill when the runtime was built
// without Config.Resilient. Non-resilient X10 cannot survive any place
// failure, so injecting one would only hang the emulation.
var ErrNotResilient = errors.New("apgas: cannot inject failures into a non-resilient runtime")

// dpePanic is the panic payload used to unwind a task that touched a dead
// place; the task wrapper converts it back into a *DeadPlaceError.
type dpePanic struct{ place Place }

// throwDead unwinds the current task with a DeadPlaceError for p.
func throwDead(p Place) {
	panic(dpePanic{place: p})
}

// recoverTaskError converts a recovered panic value into a task error.
// DeadPlaceError panics become *DeadPlaceError values; any other panic is
// wrapped so the finish surfaces it rather than crashing the process.
func recoverTaskError(r any) error {
	if r == nil {
		return nil
	}
	if d, ok := r.(dpePanic); ok {
		return &DeadPlaceError{Place: d.place}
	}
	if t, ok := r.(taskError); ok {
		return t.err
	}
	if err, ok := r.(error); ok {
		return fmt.Errorf("apgas: task panic: %w", err)
	}
	return fmt.Errorf("apgas: task panic: %v", r)
}
