// Package bench regenerates every table and figure of the paper's
// evaluation (section VII) and runs the chaos campaign. It is not the
// performance benchmark — that is the benchmark/ module.
//
//	Table II  — lines-of-code comparison (static analysis of internal/apps)
//	Fig. 2-4  — per-iteration time, resilient vs non-resilient finish,
//	            weak scaling over place counts (LinReg, LogReg, PageRank)
//	Table III — mean checkpoint time vs places
//	Fig. 5-7  — total runtime with one injected failure under the three
//	            restoration modes, plus the non-resilient baseline
//	Table IV  — % of total time in checkpoint and restore at the largest
//	            place count, per mode
//	Ablations — the design-choice experiments of DESIGN.md section 9
//
// Absolute numbers depend on the host (the emulation multiplexes places
// onto one process); the harness is tuned so the paper's *shapes* — who
// wins, how overheads scale — reproduce. EXPERIMENTS.md records both.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/apps"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/obs"
)

// Scale sets the workload sizes. The paper's sizes (50 000 examples/place
// × 500 features; 2M edges/place) target an 11-node cluster; DefaultScale
// shrinks them to laptop size while preserving weak scaling (per-place
// work constant as places grow).
type Scale struct {
	// LinRegExamplesPerPlace and Features size the LinReg training set
	// (paper: 50 000 and 500).
	LinRegExamplesPerPlace, LinRegFeatures int
	// LogRegExamplesPerPlace and Features size the LogReg training set.
	LogRegExamplesPerPlace, LogRegFeatures int
	// PageRankNodesPerPlace and OutDegree size the network:
	// edges/place = nodes/place × out-degree (paper: 2M edges per place).
	PageRankNodesPerPlace, PageRankOutDegree int
	// Iterations per run (paper: 30).
	Iterations int
	// Runs to average per configuration (paper: 30).
	Runs int
	// CheckpointInterval in iterations (paper: 10).
	CheckpointInterval int
	// FailureIteration is when the failure is injected in the restore
	// experiments (paper: 15).
	FailureIteration int
	// PlaceCounts is the weak-scaling sweep (paper: 2..44 on 11 nodes).
	PlaceCounts []int
	// Seed selects all synthetic datasets.
	Seed uint64
}

// DefaultScale returns the laptop-sized configuration used by the checked
// in experiment outputs.
func DefaultScale() Scale {
	return Scale{
		LinRegExamplesPerPlace: 1500,
		LinRegFeatures:         64,
		LogRegExamplesPerPlace: 1500,
		LogRegFeatures:         64,
		PageRankNodesPerPlace:  4000,
		PageRankOutDegree:      32,
		Iterations:             30,
		Runs:                   3,
		CheckpointInterval:     10,
		FailureIteration:       15,
		PlaceCounts:            []int{2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44},
		Seed:                   20150525, // IPDPS workshops 2015
	}
}

// SmokeScale returns a tiny configuration for tests.
func SmokeScale() Scale {
	return Scale{
		LinRegExamplesPerPlace: 40,
		LinRegFeatures:         8,
		LogRegExamplesPerPlace: 40,
		LogRegFeatures:         8,
		PageRankNodesPerPlace:  40,
		PageRankOutDegree:      4,
		Iterations:             6,
		Runs:                   1,
		CheckpointInterval:     2,
		FailureIteration:       3,
		PlaceCounts:            []int{2, 4},
		Seed:                   1,
	}
}

// Config drives the harness.
type Config struct {
	Scale Scale
	// Latency and BytePeriod parameterize the simulated interconnect.
	// They default to zero: this host's sleep granularity (~1 ms) is far
	// coarser than a cluster fabric, so injecting sleep-based latency
	// would distort rather than model it. All modeled costs are real CPU
	// work instead (bookkeeping, serialization, copies).
	Latency    time.Duration
	BytePeriod time.Duration
	// LedgerWork scales the busy work the place-zero ledger performs per
	// bookkeeping event. The work grows with the ledger's live-task count
	// (per-finish, per-place transit state upkeep — the congestion that
	// makes place-zero resilient finish the paper's scalability
	// bottleneck). Zero disables the modeled work (the ablation).
	LedgerWork int
	// FinishMode selects the resilient-finish bookkeeping architecture for
	// every resilient runtime the harness builds: apgas.FinishCentral (the
	// paper-faithful place-zero ledger, the default) or
	// apgas.FinishSharded (home-based shards with a local fast path).
	FinishMode apgas.FinishMode
	// Store is the snapshot store's redundancy policy for every resilient
	// runtime the harness builds. The zero value keeps the paper-faithful
	// default (replicate, k=2).
	Store apgas.StorePolicy
	// Compress is the checkpoint compression policy for every resilient
	// runtime the harness builds. The zero value keeps the bit-identical
	// uncompressed codec.
	Compress codec.Spec
	// Transport, when non-nil, builds a fresh communication backend for
	// each runtime the harness constructs (a transport is single-use: one
	// Start/Close lifecycle per runtime). Nil keeps the default in-process
	// backend. The CLIs wire the -transport flag here.
	Transport func() (transport.Transport, error)
	// TransportName records which backend Transport builds ("local" when
	// nil), so report metadata can name it without starting one.
	TransportName string
	// Progress, when non-nil, receives progress lines.
	Progress io.Writer
	// MetricsDir, when non-empty, receives one JSON metrics export per
	// restore run (the obs registry shared by the runtime and the
	// executor), named <app>_<mode>_p<places>.json. Table IV's percentages
	// derive from the same registry, so the exports let the dropped detail
	// (per-attempt traces, network bytes, pool hit rates) be inspected
	// after the fact.
	MetricsDir string
}

// DefaultConfig returns the configuration used for the checked-in outputs.
func DefaultConfig() Config {
	return Config{
		Scale:      DefaultScale(),
		LedgerWork: 250,
	}
}

// ledgerCost returns the ledger's per-event work function.
func (c Config) ledgerCost() func(live int) {
	n := c.LedgerWork
	if n <= 0 {
		return nil
	}
	return func(live int) {
		// Real serialized work (not a sleep): the ledger is a bottleneck
		// precisely because its processing cannot overlap. The cost grows
		// with outstanding activity, as the protocol's per-finish
		// per-place state does.
		z := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < n*(live+1); i++ {
			z ^= z >> 30
			z *= 0xbf58476d1ce4e5b9
		}
		ledgerSink.Store(z)
	}
}

// ledgerSink defeats dead-code elimination of the busy work. Atomic
// because sharded-mode runtimes charge the cost from one goroutine per
// shard, not a single ledger goroutine.
var ledgerSink atomic.Uint64

// newRuntime builds a runtime for one experiment run. reg, when non-nil,
// instruments the runtime; restore runs share it with the executor so one
// export describes the whole run.
func (c Config) newRuntime(places int, resilient bool, reg *obs.Registry) (*apgas.Runtime, error) {
	opts := []apgas.Option{
		apgas.WithPlaces(places),
		apgas.WithResilient(resilient),
		apgas.WithFinishMode(c.FinishMode),
		apgas.WithStorePolicy(c.Store),
		apgas.WithNet(apgas.NetModel{Latency: c.Latency, BytePeriod: c.BytePeriod}),
		apgas.WithObs(reg),
	}
	if !c.Compress.IsZero() {
		opts = append(opts, apgas.WithCompression(c.Compress))
	}
	if resilient {
		if cost := c.ledgerCost(); cost != nil {
			opts = append(opts, apgas.WithLedgerCost(cost))
		}
	}
	if c.Transport != nil {
		tp, err := c.Transport()
		if err != nil {
			return nil, err
		}
		opts = append(opts, apgas.WithTransport(tp))
	}
	return apgas.New(opts...)
}

// runMeta describes the host and the active runtime configuration —
// finish architecture, store redundancy policy, transport backend and
// checkpoint compression — so every chaos report is self-describing: two
// reports generated under different flags are distinguishable from their
// metadata alone.
func (c Config) runMeta() map[string]string {
	tname := c.TransportName
	if tname == "" {
		tname = "local"
	}
	store := "replicate(k=2) [default]"
	if !c.Store.IsZero() {
		store = c.Store.String()
	}
	return map[string]string{
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
		"go":          runtime.Version(),
		"date":        time.Now().UTC().Format("2006-01-02"),
		"finish":      c.FinishMode.String(),
		"store":       store,
		"transport":   tname,
		"compression": c.Compress.String(),
	}
}

// progressf writes a progress line if configured.
func (c Config) progressf(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// AppName identifies one of the three benchmark applications.
type AppName string

// The three benchmark applications.
const (
	LinReg   AppName = "LinReg"
	LogReg   AppName = "LogReg"
	PageRank AppName = "PageRank"
)

// Apps lists the benchmark applications in paper order.
var Apps = []AppName{LinReg, LogReg, PageRank}

// stepper is the common surface of the non-resilient app variants.
type stepper interface {
	IsFinished() bool
	Step() error
}

// newNonResilient builds the plain (step-loop) variant of app for p places.
func (c Config) newNonResilient(app AppName, rt *apgas.Runtime, pg apgas.PlaceGroup, places int) (stepper, error) {
	s := c.Scale
	switch app {
	case LinReg:
		return apps.NewLinRegNonResilient(rt, apps.LinRegConfig{
			Examples: s.LinRegExamplesPerPlace * places, Features: s.LinRegFeatures,
			Iterations: s.Iterations, Seed: s.Seed,
		}, pg)
	case LogReg:
		return apps.NewLogRegNonResilient(rt, apps.LogRegConfig{
			Examples: s.LogRegExamplesPerPlace * places, Features: s.LogRegFeatures,
			Iterations: s.Iterations, Seed: s.Seed,
		}, pg)
	case PageRank:
		return apps.NewPageRankNonResilient(rt, apps.PageRankConfig{
			Nodes: s.PageRankNodesPerPlace * places, OutDegree: s.PageRankOutDegree,
			Iterations: s.Iterations, Seed: s.Seed,
		}, pg)
	}
	return nil, fmt.Errorf("bench: unknown app %q", app)
}

// newResilient builds the framework (IterativeApp) variant of app.
func (c Config) newResilient(app AppName, rt *apgas.Runtime, pg apgas.PlaceGroup, places int) (core.IterativeApp, error) {
	s := c.Scale
	switch app {
	case LinReg:
		return apps.NewLinReg(rt, apps.LinRegConfig{
			Examples: s.LinRegExamplesPerPlace * places, Features: s.LinRegFeatures,
			Iterations: s.Iterations, Seed: s.Seed,
		}, pg)
	case LogReg:
		return apps.NewLogReg(rt, apps.LogRegConfig{
			Examples: s.LogRegExamplesPerPlace * places, Features: s.LogRegFeatures,
			Iterations: s.Iterations, Seed: s.Seed,
		}, pg)
	case PageRank:
		return apps.NewPageRank(rt, apps.PageRankConfig{
			Nodes: s.PageRankNodesPerPlace * places, OutDegree: s.PageRankOutDegree,
			Iterations: s.Iterations, Seed: s.Seed,
		}, pg)
	}
	return nil, fmt.Errorf("bench: unknown app %q", app)
}
