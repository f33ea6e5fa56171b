// Package rgml is a Go reproduction of "A Resilient Framework for
// Iterative Linear Algebra Applications in X10" (Hamouda, Milthorpe,
// Strazdins, Saraswat; IPDPS Workshops 2015): the X10 Global Matrix
// Library's resilience extension, rebuilt from scratch on an emulated
// APGAS runtime.
//
// The package is a facade re-exporting the public surface of the internal
// packages:
//
//   - the APGAS substrate (places, finish, failure injection) from
//     internal/apgas;
//   - single-place linear algebra from internal/la;
//   - the multi-place GML classes (DupVector, DistVector,
//     DistBlockMatrix, …) from internal/dist;
//   - snapshot/restore from internal/snapshot;
//   - the resilient iterative framework (AppResilientStore, Executor,
//     restoration modes) from internal/core;
//   - the three benchmark applications from internal/apps.
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// architecture and the paper-to-package mapping.
package rgml

import (
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/apgas/transport/tcp"
	"github.com/rgml/rgml/internal/apps"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/dist"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/snapshot"
)

// APGAS runtime surface.
type (
	// Runtime is the emulated APGAS runtime (a set of places plus the
	// finish machinery and failure injector).
	Runtime = apgas.Runtime
	// Place identifies one place (an emulated process).
	Place = apgas.Place
	// PlaceGroup is an ordered collection of places.
	PlaceGroup = apgas.PlaceGroup
	// Ctx is a task's execution context.
	Ctx = apgas.Ctx
	// DeadPlaceError reports a failed place (x10.lang.DeadPlaceException).
	DeadPlaceError = apgas.DeadPlaceError
	// FinishMode selects the resilient-finish bookkeeping architecture.
	FinishMode = apgas.FinishMode
)

// The resilient-finish architectures.
const (
	// FinishCentral is the paper-faithful place-zero ledger (the default).
	FinishCentral = apgas.FinishCentral
	// FinishSharded bookkeeps each finish at its home place's ledger shard,
	// with a local fork/join fast path and batched event delivery.
	FinishSharded = apgas.FinishSharded
)

// ParseFinishMode maps "central" or "sharded" to its FinishMode.
func ParseFinishMode(s string) (FinishMode, error) { return apgas.ParseFinishMode(s) }

// Snapshot-store redundancy surface.
type (
	// StorePolicy is the snapshot store's redundancy configuration: how
	// many copies (or erasure shards) of each checkpoint entry exist, and
	// where. The zero value keeps the paper-faithful default (replicate,
	// k=2 — owner plus next place).
	StorePolicy = apgas.StorePolicy
	// StorePlacement selects replication vs Reed-Solomon erasure coding.
	StorePlacement = apgas.Placement
)

// The snapshot-store placements.
const (
	// PlacementReplicate stores k full copies at consecutive places.
	PlacementReplicate = apgas.PlacementReplicate
	// PlacementErasure Reed-Solomon-encodes each entry into d data + p
	// parity shards, tolerating p failures at (d+p)/d storage.
	PlacementErasure = apgas.PlacementErasure
)

// ReplicateStore returns a k-copy replication policy.
func ReplicateStore(k int) StorePolicy { return apgas.ReplicateStore(k) }

// ErasureStore returns a d-data, p-parity erasure policy.
func ErasureStore(d, p int) StorePolicy { return apgas.ErasureStore(d, p) }

// ParsePlacement maps "replicate" or "erasure" to its StorePlacement.
func ParsePlacement(s string) (StorePlacement, error) { return apgas.ParsePlacement(s) }

// WithStorePolicy sets the snapshot store's redundancy policy for every
// snapshot the runtime's objects create. Policies wider than a snapshot's
// place group clamp with a trace event rather than failing.
func WithStorePolicy(sp StorePolicy) RuntimeOption { return apgas.WithStorePolicy(sp) }

// Checkpoint-compression surface.
type (
	// CompressionMode selects the checkpoint compression codec: none,
	// lossless, or error-bounded lossy quantization.
	CompressionMode = codec.Compression
	// CompressionSpec pairs a CompressionMode with the lossy error bound.
	// The zero value means no compression (the bit-identical codec).
	CompressionSpec = codec.Spec
)

// The checkpoint compression modes.
const (
	// CompressNone writes the uncompressed fixed-width codec (default).
	CompressNone = codec.CompressNone
	// CompressLossless varint/delta-encodes index arrays and
	// byte-shuffle+flate-compresses float payloads; round-trips are exact.
	CompressLossless = codec.CompressLossless
	// CompressLossy quantizes float payloads to the runtime's error
	// bound; every element restores within ±ErrorBound. Objects opt in
	// per instance (AllowLossyCheckpoint); everything else is
	// downgraded to lossless.
	CompressLossy = codec.CompressLossy
)

// ParseCompression maps "none", "lossless" or "lossy" to its mode.
func ParseCompression(s string) (CompressionMode, error) { return codec.ParseCompression(s) }

// LossyCompression returns a lossy spec with the given absolute
// per-element error bound.
func LossyCompression(errorBound float64) CompressionSpec {
	return codec.Spec{Mode: codec.CompressLossy, ErrorBound: errorBound}
}

// LosslessCompression returns the lossless spec.
func LosslessCompression() CompressionSpec { return codec.Spec{Mode: codec.CompressLossless} }

// WithCompression sets the checkpoint compression policy every dist
// object of the runtime serializes its snapshot payloads with. Lossy mode
// additionally requires the object's AllowLossyCheckpoint opt-in; an
// object without it is checkpointed losslessly.
func WithCompression(spec CompressionSpec) RuntimeOption { return apgas.WithCompression(spec) }

// RuntimeOption configures a runtime built with NewRuntimeWith.
type RuntimeOption = apgas.Option

// NewRuntimeWith creates an emulated APGAS runtime from functional
// options:
//
//	rt, err := rgml.NewRuntimeWith(rgml.WithPlaces(8), rgml.WithResilient(true))
//
// Zero options give a single non-resilient place.
func NewRuntimeWith(opts ...RuntimeOption) (*Runtime, error) { return apgas.New(opts...) }

// WithPlaces sets the number of places to create (at least 1).
func WithPlaces(n int) RuntimeOption { return apgas.WithPlaces(n) }

// WithResilient selects resilient finish semantics (required for failure
// injection, and therefore for chaos schedules).
func WithResilient(on bool) RuntimeOption { return apgas.WithResilient(on) }

// WithFinishMode selects the resilient-finish bookkeeping architecture:
// FinishCentral (the default) or FinishSharded. Both modes have identical
// semantics — failures surface as the same DeadPlaceError and seeded chaos
// schedules kill identically — only the bookkeeping cost distribution
// changes.
func WithFinishMode(m FinishMode) RuntimeOption { return apgas.WithFinishMode(m) }

// WithRuntimeObs wires the runtime's instrumentation into reg. Pass the
// same registry to WithExecutorObs for a single coherent export per run.
func WithRuntimeObs(reg *MetricsRegistry) RuntimeOption { return apgas.WithObs(reg) }

// WithKernelWorkers sets the intra-place kernel worker pool size that the
// linear-algebra kernels and per-place block fans run on (default:
// RGML_WORKERS or the CPU count). Kernel results are bit-identical at
// every worker count — the deterministic chunking contract of
// internal/par — so the knob only affects throughput, never results.
func WithKernelWorkers(n int) RuntimeOption { return apgas.WithKernelWorkers(n) }

// Transport surface. The runtime's communication seam is pluggable: the
// default in-process backend preserves the emulator's deterministic
// single-process semantics, while the TCP backend runs one place per OS
// process so failures are real process deaths detected by heartbeat.
type (
	// Transport is the runtime's communication backend: message delivery
	// between places, administrative kills, and place-death reporting.
	Transport = transport.Transport
	// TransportClass tags each message with its traffic class (task,
	// control, data or snapshot) for per-class accounting.
	TransportClass = transport.Class
	// TCPOption configures NewTCPTransport.
	TCPOption = tcp.Option
)

// WithTransport plugs a communication backend into the runtime. The
// default (nil) is the in-process local backend, which keeps runs
// bit-identical to the pre-seam emulator.
func WithTransport(tp Transport) RuntimeOption { return apgas.WithTransport(tp) }

// NewTCPTransport returns the multi-process TCP backend: the coordinator
// listens on a loopback address, spawns (or accepts) one worker process
// per place, and declares places dead when their heartbeats stop or the
// connection drops. Pair with WithTransport.
func NewTCPTransport(opts ...TCPOption) Transport { return tcp.New(opts...) }

// WithTCPAddr sets the coordinator listen address (default "127.0.0.1:0").
func WithTCPAddr(addr string) TCPOption { return tcp.WithAddr(addr) }

// WithTCPHeartbeat sets the heartbeat interval and the silence threshold
// after which a place is declared dead.
func WithTCPHeartbeat(interval, timeout time.Duration) TCPOption {
	return tcp.WithHeartbeat(interval, timeout)
}

// WithTCPObs wires the TCP backend's wire-level instrumentation into reg.
func WithTCPObs(reg *MetricsRegistry) TCPOption { return tcp.WithObs(reg) }

// MaybeTCPWorker turns this process into a TCP transport worker place and
// never returns when the worker environment variable is set; it is a
// no-op otherwise. Call it first in main() of any binary that creates a
// runtime over NewTCPTransport, so the backend can re-exec the binary as
// its worker processes.
func MaybeTCPWorker() { tcp.MaybeWorker() }

// ServeTCPWorker joins a TCP transport coordinator at addr as the worker
// body for the given place and blocks until dismissed or killed — the
// explicit form of the worker side for externally managed processes.
func ServeTCPWorker(addr string, place int, interval, timeout time.Duration) error {
	return tcp.ServeWorker(addr, place, interval, timeout)
}

// IsDeadPlace reports whether err contains a DeadPlaceError.
func IsDeadPlace(err error) bool { return apgas.IsDeadPlace(err) }

// DeadPlaces extracts the places reported dead by err.
func DeadPlaces(err error) []Place { return apgas.DeadPlaces(err) }

// ForEachPlace runs fn concurrently at every place of g under a finish.
func ForEachPlace(rt *Runtime, g PlaceGroup, fn func(ctx *Ctx, idx int)) error {
	return apgas.ForEachPlace(rt, g, fn)
}

// Single-place linear algebra surface.
type (
	// Vector is a dense column vector.
	Vector = la.Vector
	// DenseMatrix is a column-major dense matrix.
	DenseMatrix = la.DenseMatrix
	// SparseCSC is a compressed-sparse-column matrix.
	SparseCSC = la.SparseCSC
	// SparseCSR is a compressed-sparse-row matrix, the storage of sparse
	// matrix blocks.
	SparseCSR = la.SparseCSR
	// RNG is a deterministic random generator for workload synthesis.
	RNG = la.RNG
)

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return la.NewVector(n) }

// NewDense returns a zeroed rows×cols dense matrix.
func NewDense(rows, cols int) *DenseMatrix { return la.NewDense(rows, cols) }

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed uint64) *RNG { return la.NewRNG(seed) }

// BlockKind discriminates dense and sparse block storage.
type BlockKind = block.Kind

// Block storage kinds.
const (
	DenseBlocks  = block.Dense
	SparseBlocks = block.Sparse
)

// Multi-place GML classes (paper Table I).
type (
	// DupVector is a vector duplicated at every place of a group.
	DupVector = dist.DupVector
	// DistVector is a vector partitioned into per-place segments.
	DistVector = dist.DistVector
	// DupDenseMatrix is a dense matrix duplicated at every place.
	DupDenseMatrix = dist.DupDenseMatrix
	// DupSparseMatrix is a sparse matrix duplicated at every place.
	DupSparseMatrix = dist.DupSparseMatrix
	// DistDenseMatrix assigns one dense block to each place.
	DistDenseMatrix = dist.DistDenseMatrix
	// DistSparseMatrix assigns one sparse block to each place.
	DistSparseMatrix = dist.DistSparseMatrix
	// DistBlockMatrix assigns one or more blocks to each place.
	DistBlockMatrix = dist.DistBlockMatrix
)

// MakeDupVector creates a zeroed duplicated vector of length n over pg.
func MakeDupVector(rt *Runtime, n int, pg PlaceGroup) (*DupVector, error) {
	return dist.MakeDupVector(rt, n, pg)
}

// MakeDistVector creates a zeroed distributed vector of length n over pg.
func MakeDistVector(rt *Runtime, n int, pg PlaceGroup) (*DistVector, error) {
	return dist.MakeDistVector(rt, n, pg)
}

// MakeDistBlockMatrix creates a distributed block matrix (the factory of
// paper Listing 2, with an arbitrary place group).
func MakeDistBlockMatrix(rt *Runtime, kind BlockKind, rows, cols, rowBlocks, colBlocks, rowPlaces, colPlaces int, pg PlaceGroup) (*DistBlockMatrix, error) {
	return dist.MakeDistBlockMatrix(rt, kind, rows, cols, rowBlocks, colBlocks, rowPlaces, colPlaces, pg)
}

// MakeDistDenseMatrix creates a dense matrix with one block per place.
func MakeDistDenseMatrix(rt *Runtime, rows, cols int, pg PlaceGroup) (*DistDenseMatrix, error) {
	return dist.MakeDistDenseMatrix(rt, rows, cols, pg)
}

// MakeDistSparseMatrix creates a sparse matrix with one block per place.
func MakeDistSparseMatrix(rt *Runtime, rows, cols int, pg PlaceGroup) (*DistSparseMatrix, error) {
	return dist.MakeDistSparseMatrix(rt, rows, cols, pg)
}

// MakeDupDenseMatrix creates a duplicated dense matrix over pg.
func MakeDupDenseMatrix(rt *Runtime, rows, cols int, pg PlaceGroup) (*DupDenseMatrix, error) {
	return dist.MakeDupDenseMatrix(rt, rows, cols, pg)
}

// MakeDupSparseMatrix creates a duplicated sparse matrix over pg.
func MakeDupSparseMatrix(rt *Runtime, rows, cols int, pg PlaceGroup) (*DupSparseMatrix, error) {
	return dist.MakeDupSparseMatrix(rt, rows, cols, pg)
}

// Snapshot/restore surface (paper section IV-B).
type (
	// Snapshot is a resilient key/value capture of one object's state
	// with local + next-place double storage.
	Snapshot = snapshot.Snapshot
	// Snapshottable is implemented by every GML object that supports
	// snapshot/restore (paper Listing 3).
	Snapshottable = snapshot.Snapshottable
)

// Resilient iterative framework surface (paper section V).
type (
	// IterativeApp is the 4-method resilient programming model.
	IterativeApp = core.IterativeApp
	// AppResilientStore builds atomic application checkpoints.
	AppResilientStore = core.AppResilientStore
	// Executor drives an IterativeApp with checkpoint/restart.
	Executor = core.Executor
	// RestoreMode selects how the application adapts to place loss.
	RestoreMode = core.RestoreMode
)

// Restoration modes (paper section V-B, plus the future-work elastic mode).
const (
	Shrink           = core.Shrink
	ShrinkRebalance  = core.ShrinkRebalance
	ReplaceRedundant = core.ReplaceRedundant
	ReplaceElastic   = core.ReplaceElastic
)

// ExecutorOption configures an executor built with NewExecutorWith.
type ExecutorOption = core.Option

// NewExecutorWith builds a resilient executor over rt's initial world from
// functional options:
//
//	exec, err := rgml.NewExecutorWith(rt,
//	    rgml.WithCheckpointInterval(10),
//	    rgml.WithRestoreMode(rgml.Shrink),
//	)
//
// Run it with Executor.Run, or Executor.RunContext to bound the run with a
// context (cancellation surfaces as ErrCanceled).
func NewExecutorWith(rt *Runtime, opts ...ExecutorOption) (*Executor, error) {
	return core.New(rt, opts...)
}

// WithCheckpointInterval checkpoints before iterations 0, k, 2k, ….
func WithCheckpointInterval(k int) ExecutorOption { return core.WithCheckpointInterval(k) }

// WithMTTF enables automatic checkpoint intervals from Young's formula.
func WithMTTF(mttf time.Duration) ExecutorOption { return core.WithMTTF(mttf) }

// WithRestoreMode selects the restoration mode applied on failure.
func WithRestoreMode(m RestoreMode) ExecutorOption { return core.WithRestoreMode(m) }

// WithFallback selects how either replace mode shrinks away the dead
// places its spare pool cannot cover; it must be Shrink or
// ShrinkRebalance, and shrink modes ignore it.
func WithFallback(m RestoreMode) ExecutorOption { return core.WithFallback(m) }

// WithSpares reserves the last n places of the runtime's initial world as
// the spare pool of either replace mode; shrink modes ignore it.
func WithSpares(n int) ExecutorOption { return core.WithSpares(n) }

// WithMaxRestores bounds recovery attempts per run.
func WithMaxRestores(n int) ExecutorOption { return core.WithMaxRestores(n) }

// WithAfterStep installs a hook running after each successful iteration.
func WithAfterStep(fn func(iter int64)) ExecutorOption { return core.WithAfterStep(fn) }

// WithExecutorObs directs the executor's instruments into reg.
func WithExecutorObs(reg *MetricsRegistry) ExecutorOption { return core.WithObs(reg) }

// WithChaos attaches a fault-injection engine to the executor: armed for
// the duration of each run, driven by the executor's iteration clock.
func WithChaos(eng *ChaosEngine) ExecutorOption { return core.WithChaos(eng) }

// Chaos fault-injection surface (internal/chaos): deterministic,
// seed-reproducible failure schedules driving the runtime's Kill and
// transient-fault hooks from declarative rules.
type (
	// ChaosEngine evaluates a schedule against injection points while a
	// run is armed; same seed + schedule ⇒ identical kill sequence.
	ChaosEngine = chaos.Engine
	// ChaosSchedule is an ordered list of fault rules.
	ChaosSchedule = chaos.Schedule
	// ChaosRule is one declarative fault rule.
	ChaosRule = chaos.Rule
	// ChaosPoint names an injection point (step, commit, restore, spawn,
	// replica).
	ChaosPoint = chaos.Point
	// ChaosOption configures an engine built with NewChaosEngine.
	ChaosOption = chaos.Option
)

// Chaos injection points.
const (
	ChaosPointStep    = chaos.PointStep
	ChaosPointCommit  = chaos.PointCommit
	ChaosPointRestore = chaos.PointRestore
	ChaosPointSpawn   = chaos.PointSpawn
	ChaosPointReplica = chaos.PointReplica
)

// NewChaosEngine builds a fault-injection engine over rt (which must be
// resilient). Attach it to an executor with WithChaos.
func NewChaosEngine(rt *Runtime, sched ChaosSchedule, opts ...ChaosOption) (*ChaosEngine, error) {
	return chaos.New(rt, sched, opts...)
}

// WithChaosSeed seeds the engine's deterministic random draws.
func WithChaosSeed(seed uint64) ChaosOption { return chaos.WithSeed(seed) }

// ParseChaosSchedule parses the schedule DSL, e.g.
// "kill(point=commit,iter=2,place=1);flake(times=3)".
func ParseChaosSchedule(s string) (ChaosSchedule, error) { return chaos.Parse(s) }

// Typed framework errors, for errors.Is against results of Executor.Run,
// Executor.RunContext and the store operations.
var (
	// ErrNoSnapshot: recovery was needed but no checkpoint was ever
	// committed (checkpointing disabled or first interval not reached).
	ErrNoSnapshot = core.ErrNoSnapshot
	// ErrSnapshotInProgress: a new snapshot was started while one was
	// already open.
	ErrSnapshotInProgress = core.ErrSnapshotInProgress
	// ErrGroupExhausted: a failure left no usable surviving places.
	ErrGroupExhausted = core.ErrGroupExhausted
	// ErrRestoreBudget: recovery was abandoned after MaxRestores attempts.
	ErrRestoreBudget = core.ErrRestoreBudget
	// ErrCanceled: the run's context was canceled or timed out.
	ErrCanceled = core.ErrCanceled
	// ErrBadOption: a runtime option carried an invalid value (unknown
	// finish mode, non-positive ledger queue, malformed store policy).
	ErrBadOption = apgas.ErrBadOption
	// ErrDataLost: failures exceeded the store policy's tolerance — more
	// places died between checkpoints than there were surviving replicas
	// or parity shards for an entry. Loss is always loud, never silent.
	ErrDataLost = snapshot.ErrDataLost
)

// Observability surface (internal/obs).
type (
	// MetricsRegistry is the named-instrument registry (counters, gauges,
	// duration histograms, trace events) that the runtime, the snapshot
	// layer and the executor report into. Pass one registry to both
	// WithRuntimeObs and WithExecutorObs to get a single coherent export
	// for a run.
	MetricsRegistry = obs.Registry
	// TraceEvent is one entry of a registry's trace ring.
	TraceEvent = obs.Event
)

// NewMetricsRegistry returns an empty registry with the default trace
// capacity.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewAppResilientStore returns an empty application store.
func NewAppResilientStore() *AppResilientStore { return core.NewAppResilientStore() }

// Benchmark applications (paper section VII).
type (
	// LinRegConfig parameterizes the Linear Regression benchmark.
	LinRegConfig = apps.LinRegConfig
	// LinRegApp is the resilient Linear Regression application.
	LinRegApp = apps.LinReg
	// LogRegConfig parameterizes the Logistic Regression benchmark.
	LogRegConfig = apps.LogRegConfig
	// LogRegApp is the resilient Logistic Regression application.
	LogRegApp = apps.LogReg
	// PageRankConfig parameterizes the PageRank benchmark.
	PageRankConfig = apps.PageRankConfig
	// PageRankApp is the resilient PageRank application.
	PageRankApp = apps.PageRank
	// GNMFConfig parameterizes the non-negative matrix factorization
	// benchmark (an extension beyond the paper's three applications).
	GNMFConfig = apps.GNMFConfig
	// GNMFApp is the resilient GNMF application.
	GNMFApp = apps.GNMF
)

// NewLinReg builds the resilient Linear Regression application.
func NewLinReg(rt *Runtime, cfg LinRegConfig, pg PlaceGroup) (*LinRegApp, error) {
	return apps.NewLinReg(rt, cfg, pg)
}

// NewLogReg builds the resilient Logistic Regression application.
func NewLogReg(rt *Runtime, cfg LogRegConfig, pg PlaceGroup) (*LogRegApp, error) {
	return apps.NewLogReg(rt, cfg, pg)
}

// NewPageRank builds the resilient PageRank application.
func NewPageRank(rt *Runtime, cfg PageRankConfig, pg PlaceGroup) (*PageRankApp, error) {
	return apps.NewPageRank(rt, cfg, pg)
}

// NewGNMF builds the resilient non-negative matrix factorization
// application.
func NewGNMF(rt *Runtime, cfg GNMFConfig, pg PlaceGroup) (*GNMFApp, error) {
	return apps.NewGNMF(rt, cfg, pg)
}
