package core

import (
	"time"

	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/obs"
)

// Option configures an Executor built with New; every Config knob has a
// corresponding With* option.
type Option func(*Config)

// WithCheckpointInterval checkpoints before iterations 0, k, 2k, ….
func WithCheckpointInterval(k int) Option {
	return func(c *Config) { c.CheckpointInterval = k }
}

// WithMTTF enables automatic checkpoint intervals from Young's formula for
// the given mean time to failure (used when no fixed interval is set).
func WithMTTF(mttf time.Duration) Option {
	return func(c *Config) { c.MTTF = mttf }
}

// WithRestoreMode selects the restoration mode applied on failure.
func WithRestoreMode(m RestoreMode) Option {
	return func(c *Config) { c.Mode = m }
}

// WithFallback selects how either replace mode shrinks away the dead
// places its spare pool cannot cover; it must be Shrink or
// ShrinkRebalance, and shrink modes ignore it.
func WithFallback(m RestoreMode) Option {
	return func(c *Config) { c.Fallback = m }
}

// WithSpares reserves the last n places of the runtime's initial world as
// the spare pool of either replace mode; shrink modes never draw from it.
func WithSpares(n int) Option {
	return func(c *Config) { c.Spares = n }
}

// WithMaxRestores bounds recovery attempts per run.
func WithMaxRestores(n int) Option {
	return func(c *Config) { c.MaxRestores = n }
}

// WithAfterStep installs a hook running after each successful iteration
// with the 1-based count of completed iterations.
func WithAfterStep(fn func(iter int64)) Option {
	return func(c *Config) { c.AfterStep = fn }
}

// WithObs directs the executor's instruments into reg instead of the
// runtime's (or a private) registry.
func WithObs(reg *obs.Registry) Option {
	return func(c *Config) { c.Obs = reg }
}

// WithChaos attaches a fault-injection engine: the executor arms it for
// the duration of each run, drives its iteration clock, and fires the
// step/commit/restore points the engine's schedule can match.
func WithChaos(eng *chaos.Engine) Option {
	return func(c *Config) { c.Chaos = eng }
}
