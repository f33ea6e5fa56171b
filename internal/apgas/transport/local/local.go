// Package local is the default in-process transport backend: every place
// lives in the one OS process, so a Send has no wire to cross and does
// nothing. The runtime counts each message in apgas.net.* before it
// reaches the backend.
//
// The backend is deliberately trivial. It exists so that the runtime's
// communication path is the same code whether the backend is this
// emulation or a real multi-process transport. There are no external
// place bodies to kill (nor to run a kernel in: the backend implements no
// transport.Executor, and the runtime executes every registered kernel
// in-process), and no failure detector that could perturb deterministic
// chaos schedules.
package local

import (
	"time"

	"github.com/rgml/rgml/internal/apgas/transport"
)

// Transport is the in-process backend. The zero value is usable.
type Transport struct{}

// New builds the in-process backend.
func New() *Transport { return &Transport{} }

// Name implements transport.Transport.
func (t *Transport) Name() string { return "local" }

// Start implements transport.Transport. The local backend has no bodies
// to spawn and never reports deaths, so it only accepts the handler.
func (t *Transport) Start(places int, h transport.Handler) error { return nil }

// Send implements transport.Transport. Places share the process, so
// nothing crosses a wire: it returns 0, nil.
func (t *Transport) Send(from, to int, class transport.Class, size int, payload []byte) (time.Duration, error) {
	return 0, nil
}

// Kill implements transport.Transport. Places have no external bodies in
// this backend; the runtime's own bookkeeping is the whole kill.
func (t *Transport) Kill(place int) error { return nil }

// Grow implements transport.Transport. New in-process places need no
// backend support.
func (t *Transport) Grow(n int) error { return nil }

// Close implements transport.Transport.
func (t *Transport) Close() error { return nil }
