// Package apgas emulates the X10 Asynchronous Partitioned Global Address
// Space (APGAS) runtime inside a single Go process.
//
// The X10 concepts reproduced here, following "Resilient X10: efficient
// failure-aware programming" (PPoPP 2014) as used by the resilient GML
// paper, are:
//
//   - Place: an abstraction of an operating system process holding a
//     collection of data and tasks operating on that data. In this
//     emulation a place is an isolated in-memory object store plus the
//     set of goroutines currently executing tasks "at" it. Isolation is
//     enforced by the API: remote data is reachable only through
//     PlaceLocalHandle and GlobalRef values resolved at the owning place.
//
//   - PlaceGroup: an ordered collection of places over which multi-place
//     data structures are distributed.
//
//   - async / at / finish: Finish.AsyncAt spawns a task at a place;
//     Runtime.At runs a closure synchronously at a place; Runtime.Finish
//     blocks until every task spawned (transitively) inside it has
//     terminated, collecting exceptions.
//
//   - Resilient finish: with Config.Resilient, every task fork and join
//     is recorded by a centralized ledger at place zero (the "resilient
//     finish bookkeeping" whose cost the paper measures in Figures 2-4).
//     When a place dies, the ledger terminates the orphaned tasks and the
//     enclosing finishes observe a DeadPlaceError.
//
//   - Failure model: Runtime.Kill makes a place fail-stop — its store is
//     dropped, running tasks abort at their next store or network access,
//     and queued tasks never start. Place zero is immortal (killing it is
//     refused), matching the paper's assumption that resilient X10 cannot
//     survive the loss of place zero.
//
// No interconnect is simulated: every place-to-place message is counted
// (apgas.net.messages, apgas.net.bytes and the per-class
// apgas.transport.* counters), never slept. The tcp transport backend is
// the real network.
package apgas
