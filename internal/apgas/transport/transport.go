// Package transport defines the runtime's communication seam: the narrow
// interface through which the emulated APGAS runtime moves place-crossing
// messages and learns about place failures.
//
// Everything the runtime knows about "the network" funnels through one
// Transport value:
//
//   - message send between places, tagged with a traffic Class so backends
//     and the observability layer can account task spawns, resilient-finish
//     bookkeeping, bulk data and checkpoint replica traffic separately;
//   - place liveness: a backend with a real failure detector (heartbeats,
//     connection loss) reports deaths through the Handler, which the
//     runtime feeds into the exact same dead-place broadcast path used by
//     injected (chaos) kills;
//   - administrative control: fail-stopping a place's external body (Kill)
//     and growing the place set elastically (Grow).
//
// Two backends implement the seam:
//
//   - transport/local is the default in-process emulation: every place
//     lives in the one OS process, Send does nothing, and no external
//     failures exist. Messages are counted in apgas.net.* above the seam,
//     and chaos kill fingerprints stay deterministic.
//
//   - transport/tcp runs one place per OS process: place zero is the
//     coordinator, every other place is paired with a worker process
//     reached over a TCP connection carrying flat length-prefixed frames.
//     A heartbeat failure detector with configurable interval and timeout
//     turns real process death into Handler.PlaceDead events.
//
// The package deliberately speaks in plain ints for place IDs so that it
// has no dependency on package apgas (which imports it).
package transport

import (
	"errors"
	"time"

	"github.com/rgml/rgml/internal/apgas/kernel"
)

// Class tags the traffic crossing the seam so backends and counters can
// distinguish what kind of message a Send carries.
type Class uint8

const (
	// ClassTask is task-control traffic: spawns (AsyncAt) and synchronous
	// at-hops, one message each (an At's return leg sends nothing).
	ClassTask Class = iota
	// ClassControl is resilient-finish bookkeeping traffic: fork/join/wait
	// events bound for a ledger shard.
	ClassControl
	// ClassData is bulk application data movement declared by size
	// (Ctx.Transfer): collective gathers, broadcasts, reductions.
	ClassData
	// ClassSnapshot is checkpoint redundancy traffic: replica and erasure
	// shard payloads moving between a snapshot's owner and its backups,
	// declared by size like every other class.
	ClassSnapshot

	// NumClasses bounds the Class space for per-class counter arrays.
	NumClasses = 4
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassTask:
		return "task"
	case ClassControl:
		return "control"
	case ClassData:
		return "data"
	case ClassSnapshot:
		return "snapshot"
	}
	return "unknown"
}

// DeathCause says how a transport learned that a place died.
type DeathCause uint8

const (
	// CauseKill is an administrative fail-stop: Runtime.Kill (directly or
	// through the chaos engine) asked the transport to destroy the place's
	// body. The runtime marks the place dead before issuing it, so a
	// backend never reports CauseKill through the Handler.
	CauseKill DeathCause = iota
	// CauseTimeout is a heartbeat failure-detector timeout: the place's
	// body stopped heartbeating for longer than the configured timeout.
	CauseTimeout
	// CauseConn is a transport-level connection loss detected before any
	// heartbeat timeout (process exit resets the socket).
	CauseConn
)

// String implements fmt.Stringer.
func (c DeathCause) String() string {
	switch c {
	case CauseKill:
		return "kill"
	case CauseTimeout:
		return "timeout"
	case CauseConn:
		return "conn"
	}
	return "unknown"
}

// Handler receives the transport's upcalls into the runtime. The runtime
// installs it at Start, before any messages flow.
type Handler struct {
	// PlaceDead reports that the transport's failure detector declared a
	// place dead. It may be invoked from arbitrary transport goroutines,
	// concurrently with Sends; the runtime feeds it into the same
	// dead-place broadcast path (store drop + ledger orphan termination)
	// used by injected kills. Implementations dedupe: reporting an
	// already-dead place is a no-op.
	PlaceDead func(place int, cause DeathCause)
}

// Transport is the runtime's communication backend. The runtime owns
// exactly one; all place-crossing traffic and all liveness information
// flows through it.
//
// Implementations must be safe for concurrent use: Sends are issued from
// many task goroutines at once, racing Kill, Grow and detector upcalls.
type Transport interface {
	// Name identifies the backend ("local", "tcp") for logs and reports.
	Name() string

	// Start brings the backend up for the given initial place count and
	// installs the runtime's handler. For a distributed backend this is
	// where worker bodies are spawned or awaited; a Start error means the
	// runtime cannot be constructed.
	Start(places int, h Handler) error

	// Send moves one message of the given class from place from to place
	// to. The runtime has already counted it in apgas.net.*; neither
	// in-tree backend sleeps or writes for it (tcp puts nothing on the
	// wire because closure bodies run at the coordinator), so both return
	// a zero duration. The duration result stays only for the benchmark's
	// tracing decorator, which times the call. size declares the payload
	// volume for accounting.
	// The runtime always passes a nil payload: every message is a
	// footprint, and bytes a worker should keep travel in kernel tasks
	// (Executor). The parameter remains for implementations outside this
	// module; the tcp backend rejects a non-nil payload.
	// Intra-place sends (from == to) are free and return immediately.
	// A Send to a dead or unknown place returns an error; callers treat
	// that as "the failure detector will tell the runtime", not as a
	// task-visible fault.
	Send(from, to int, class Class, size int, payload []byte) (time.Duration, error)

	// Kill administratively fail-stops the place's external body (worker
	// process, connection). The runtime has already marked the place dead
	// when it calls Kill, so the backend must suppress the redundant
	// detector report. The local backend has no bodies and treats Kill as
	// a no-op.
	Kill(place int) error

	// Grow extends the backend by n new places (elastic growth), numbered
	// densely after the existing ones. A backend that cannot give the new
	// places bodies (a tcp worker that fails to spawn or to join in time)
	// returns an error, which Runtime.AddPlaces surfaces.
	Grow(n int) error

	// Close tears the backend down: stops detectors, closes connections,
	// reaps worker processes. Called once at Runtime.Shutdown.
	Close() error
}

// ErrNoDataPlane is an Executor's answer to the capability probe when it
// cannot execute kernels remotely: the runtime then runs every kernel
// in-process, which is always correct (registered kernels are pure).
var ErrNoDataPlane = errors.New("transport: backend has no distributed data plane")

// ErrClosed and ErrNoBody are the transport-level Exec failures a backend
// can tell apart from a wire that broke mid-dispatch: the backend was
// shut down, or the place had no live body to dispatch into. Backends
// wrap them. The runtime treats every Exec error as the place's death
// unless it has been shut down.
var (
	ErrClosed = errors.New("transport: backend closed")
	ErrNoBody = errors.New("transport: place has no live body")
)

// Executor is the optional distributed-data-plane capability: a backend
// that can execute a registered kernel inside the place's own body
// (worker process) implements it alongside Transport. The runtime probes
// with Exec(nil) at construction — a nil task is a capability check,
// answered (nil, nil) by a backend that dispatches remotely and
// ErrNoDataPlane by one that does not — so the base Transport interface,
// and every existing fake implementing it, stays unchanged. A backend
// with no worker bodies at all (transport/local) simply omits it.
type Executor interface {
	// Exec runs t at the place t.Place names and blocks until the result
	// returns. A transport-level failure (dead place, broken wire,
	// backend closed) is the error, and the runtime marks the place dead
	// unless it has been shut down; a kernel-level failure travels
	// inside the (non-nil) Result's Err, and the runtime returns it to
	// the caller.
	//
	// t's blobs (Puts[i].Data, Payload) are borrowed until Exec returns:
	// the caller may recycle them afterwards, so an implementation that
	// keeps the bytes — an in-process fake with a store — copies them. The
	// result may be pool-backed; the caller may Release it.
	Exec(t *kernel.Task) (*kernel.Result, error)
}
