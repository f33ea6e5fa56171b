// Package local is the default in-process transport backend: every place
// lives in the one OS process, so a Send has no wire to cross — it only
// charges the simulated network delay the runtime's NetModel prescribes.
//
// The backend is deliberately trivial. It exists so that the runtime's
// communication path is the same code whether the backend is this
// emulation or a real multi-process transport, and it is bit-identical to
// the pre-seam runtime: the delay function it sleeps on is exactly the
// old chargeNet computation, there are no external place bodies to kill
// (nor to run a kernel in: the backend implements no transport.Executor,
// and the runtime executes every registered kernel in-process), and no
// failure detector that could perturb deterministic chaos schedules.
package local

import (
	"time"

	"github.com/rgml/rgml/internal/apgas/transport"
)

// Transport is the in-process backend. The zero value is usable (no
// simulated delay); New applies options.
type Transport struct {
	delay func(bytes int) time.Duration
}

// Option configures the local backend.
type Option func(*Transport)

// WithDelay installs the simulated-network delay function: Send sleeps
// delay(size) for every place-crossing message. The runtime passes its
// NetModel's delay here so accounting stays identical to the pre-seam
// chargeNet path.
func WithDelay(delay func(bytes int) time.Duration) Option {
	return func(t *Transport) { t.delay = delay }
}

// New builds the in-process backend.
func New(opts ...Option) *Transport {
	t := &Transport{}
	for _, o := range opts {
		if o != nil {
			o(t)
		}
	}
	return t
}

// Name implements transport.Transport.
func (t *Transport) Name() string { return "local" }

// Start implements transport.Transport. The local backend has no bodies
// to spawn and never reports deaths, so it only accepts the handler.
func (t *Transport) Start(places int, h transport.Handler) error { return nil }

// Send implements transport.Transport: it charges the simulated delay
// for place-crossing traffic by sleeping, exactly as the pre-seam
// runtime did, and returns the duration charged.
func (t *Transport) Send(from, to int, class transport.Class, size int, payload []byte) (time.Duration, error) {
	if from == to || t.delay == nil {
		return 0, nil
	}
	if d := t.delay(size); d > 0 {
		time.Sleep(d)
		return d, nil
	}
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
