package apgas

import (
	"fmt"

	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/obs"
)

// Option configures a Runtime under construction (see New).
type Option func(*Config)

// WithPlaces sets the number of places to create (at least 1).
func WithPlaces(n int) Option {
	return func(c *Config) { c.Places = n }
}

// WithResilient selects resilient finish semantics: task forks and joins
// are tracked by the resilient-finish ledger, place failures are
// detected, and affected finishes observe DeadPlaceError. Failure
// injection (Kill, and therefore the chaos engine) requires it.
func WithResilient(on bool) Option {
	return func(c *Config) { c.Resilient = on }
}

// WithFinishMode selects the shape of the resilient-finish ledger:
// FinishCentral (the default) is the paper-faithful place-zero ledger,
// FinishSharded the home-based sharded design with a local fast path and
// batched event delivery (see Config.FinishMode). An unknown mode is a
// construction error (wrapping ErrBadOption), recorded when the option
// applies.
func WithFinishMode(m FinishMode) Option {
	return func(c *Config) {
		if m != FinishCentral && m != FinishSharded {
			c.recordErr(fmt.Errorf("apgas: WithFinishMode(%d): unknown finish mode: %w", int(m), ErrBadOption))
			return
		}
		c.FinishMode = m
	}
}

// WithLedgerCost sets the modeled bookkeeping work of the
// resilient-finish ledger per drain of a shard's queue (one event in
// central mode; see Config.LedgerCost).
func WithLedgerCost(fn func(liveTasks int)) Option {
	return func(c *Config) { c.LedgerCost = fn }
}

// WithStorePolicy sets the snapshot store's redundancy policy (see
// Config.Store): replication factor k via ReplicateStore(k), or
// Reed-Solomon erasure coding via ErasureStore(d, p). An invalid policy
// (negative counts, d+p > 255) is a construction error wrapping
// ErrBadOption; a policy merely wider than some snapshot's place group
// is fine — the store clamps it per group with a trace event.
func WithStorePolicy(sp StorePolicy) Option {
	return func(c *Config) {
		if err := sp.Validate(); err != nil {
			c.recordErr(err)
			return
		}
		c.Store = sp
	}
}

// WithTransport installs a communication backend (see Config.Transport):
// all place-crossing traffic and liveness information flows through it.
// Omitting the option selects the default in-process backend
// (transport/local), whose places share one process and whose Send does
// nothing; the apgas.net.* counters record every message either way. A
// nil backend is a construction error (wrapping
// ErrBadOption) — callers wanting the default simply omit the option.
func WithTransport(tp transport.Transport) Option {
	return func(c *Config) {
		if tp == nil {
			c.recordErr(fmt.Errorf("apgas: WithTransport(nil): transport must be non-nil: %w", ErrBadOption))
			return
		}
		c.Transport = tp
	}
}

// WithCompression sets the checkpoint compression policy (see
// Config.Compress): codec.CompressNone (the default, bit-identical to
// the uncompressed codec), codec.CompressLossless, or
// codec.CompressLossy with a positive finite ErrorBound. An invalid
// spec (lossy without a usable bound, or a bound on a non-lossy mode)
// is a construction error wrapping ErrBadOption.
func WithCompression(spec codec.Spec) Option {
	return func(c *Config) {
		if err := spec.Validate(); err != nil {
			c.recordErr(fmt.Errorf("apgas: WithCompression: %w (%w)", err, ErrBadOption))
			return
		}
		c.Compress = spec
	}
}

// recordErr keeps the first option-validation failure for New to surface.
func (c *Config) recordErr(err error) {
	if c.err == nil {
		c.err = err
	}
}

// WithObs wires the runtime's instrumentation into reg (see Config.Obs).
func WithObs(reg *obs.Registry) Option {
	return func(c *Config) { c.Obs = reg }
}

// WithKernelWorkers sets the intra-place kernel worker pool size (see
// Config.KernelWorkers). n < 1 resets the pool to its default
// (RGML_WORKERS or runtime.NumCPU()). Kernel results are bit-identical
// at every worker count, so this is purely a throughput knob.
func WithKernelWorkers(n int) Option {
	return func(c *Config) { c.KernelWorkers = n }
}
