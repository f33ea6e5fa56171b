package bench

import (
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/apgas/transport/tcp"
	"github.com/rgml/rgml/internal/apps"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/dist"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
)

// TestMain lets the tcp transport re-exec this test binary as its worker
// processes: a worker serves its place inside MaybeWorker and never
// reaches m.Run.
func TestMain(m *testing.M) {
	tcp.MaybeWorker()
	os.Exit(m.Run())
}

// tcpFactory builds fresh tcp backends. The timeout is generous because
// these runs execute under -race with worker processes spawning
// concurrently — a tight timeout turns scheduler stalls into spurious
// deaths. SIGKILL detection stays fast regardless: the connection reset
// reports it long before the heartbeat deadline.
func tcpFactory() (transport.Transport, error) {
	return tcp.New(tcp.WithHeartbeat(25*time.Millisecond, 2*time.Second)), nil
}

// backendRun captures what a run must reproduce across backends: the
// chaos engine's kill fingerprint and the bit pattern of the final
// iterate.
type backendRun struct {
	signature string
	bits      []uint64
	killed    int64
	failed    int64
	// workerTasks counts registered kernels executed inside worker
	// processes and localTasks those executed in-process. Both backends
	// run the same kernels through the same dispatch; the invariance
	// contract is that where they physically ran — all in-process on the
	// local backend, in workers on a data-plane backend — is the ONLY
	// place the backends may differ.
	workerTasks int64
	localTasks  int64
	// workerTasksAtKill is the count after the last step completed
	// before the first kill, for asserting dispatch re-establishes itself
	// on the shrunken group.
	workerTasksAtKill int64
}

// runChaosSchedule executes one chaos run of LinReg under schedule (seed
// 1, shrink restores) at the given place count over the given backend
// (nil factory: the default local backend) and returns its fingerprint.
func runChaosSchedule(t *testing.T, factory func() (transport.Transport, error), places int, schedule string) backendRun {
	t.Helper()
	cfg := Config{Scale: SmokeScale()}
	cfg.Transport = factory
	reg := obs.NewRegistry()
	rt, err := cfg.newRuntime(places, true, reg)
	if err != nil {
		t.Fatalf("newRuntime: %v", err)
	}
	defer rt.Shutdown()
	sched, err := chaos.Parse(schedule)
	if err != nil {
		t.Fatalf("chaos.Parse: %v", err)
	}
	eng, err := chaos.New(rt, sched, chaos.WithSeed(1))
	if err != nil {
		t.Fatalf("chaos.New: %v", err)
	}
	var atKill int64
	exec, err := core.New(rt,
		core.WithCheckpointInterval(cfg.Scale.CheckpointInterval),
		core.WithRestoreMode(core.Shrink),
		core.WithChaos(eng),
		core.WithAfterStep(func(int64) {
			if len(eng.Kills()) == 0 {
				atKill = rt.Stats().WorkerTasks
			}
		}),
	)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	app, err := cfg.newResilient(LinReg, rt, exec.ActiveGroup(), places)
	if err != nil {
		t.Fatalf("newResilient: %v", err)
	}
	if err := exec.Run(app); err != nil {
		t.Fatalf("run (transport %s): %v", rt.TransportName(), err)
	}
	if exec.Metrics().Restores == 0 {
		t.Fatalf("no restore happened (transport %s)", rt.TransportName())
	}
	w, err := apps.FinalIterate(app)
	if err != nil {
		t.Fatalf("FinalIterate: %v", err)
	}
	st := rt.Stats()
	return backendRun{
		signature:         eng.Signature(),
		bits:              vectorBits(w),
		killed:            st.PlacesKilled,
		failed:            st.PlacesFailed,
		workerTasks:       st.WorkerTasks,
		localTasks:        reg.CounterValue("apgas.tasks.kernel_local"),
		workerTasksAtKill: atKill,
	}
}

// vectorBits is the exact bit pattern of a vector — cross-backend
// invariance is bitwise, not epsilon-close.
func vectorBits(v la.Vector) []uint64 {
	bits := make([]uint64, len(v))
	for i, x := range v {
		bits[i] = math.Float64bits(x)
	}
	return bits
}

// TestCrossBackendChaosInvariance runs the same seeded chaos schedule over
// the local and tcp backends at several place counts: the kill
// fingerprints must be identical and the final iterates bitwise equal —
// the transport seam must not perturb the emulator's determinism.
func TestCrossBackendChaosInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	for _, places := range []int{3, 5} {
		const schedule = "kill(point=commit,iter=2,place=1)"
		local := runChaosSchedule(t, nil, places, schedule)
		over := runChaosSchedule(t, tcpFactory, places, schedule)
		if local.signature != over.signature {
			t.Errorf("places=%d: kill fingerprints diverge: local %q, tcp %q",
				places, local.signature, over.signature)
		}
		if local.killed != over.killed || over.failed != 0 {
			t.Errorf("places=%d: death accounting diverges: local killed=%d, tcp killed=%d failed=%d",
				places, local.killed, over.killed, over.failed)
		}
		// The one permitted difference: where the kernels physically ran.
		if local.localTasks == 0 || local.workerTasks != 0 {
			t.Errorf("places=%d: local backend executed %d kernels in-process and %d in workers, want all of them in-process",
				places, local.localTasks, local.workerTasks)
		}
		if over.workerTasks == 0 {
			t.Errorf("places=%d: tcp backend executed no worker-side kernels — the data plane never engaged", places)
		}
		if len(local.bits) != len(over.bits) {
			t.Fatalf("places=%d: iterate lengths diverge: %d vs %d", places, len(local.bits), len(over.bits))
		}
		for i := range local.bits {
			if local.bits[i] != over.bits[i] {
				t.Fatalf("places=%d: final iterate diverges at [%d]: %#x vs %#x",
					places, i, local.bits[i], over.bits[i])
			}
		}
	}
}

// TestRealProcessKillMatchesLocalChaosKill is the acceptance check for
// transport fidelity: a chaos crash rule SIGKILLing a real worker process
// under the tcp backend — death discovered by the failure detector, not
// an administrative mark — must log the same kill and recover to the same
// final weights as the kill rule with the same keys under the local
// backend.
func TestRealProcessKillMatchesLocalChaosKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and SIGKILLs worker processes")
	}
	const places = 4
	local := runChaosSchedule(t, nil, places, "kill(iter=3,place=1)")
	if local.killed != 1 || local.failed != 0 {
		t.Fatalf("local run: killed=%d failed=%d, want 1/0", local.killed, local.failed)
	}
	over := runChaosSchedule(t, tcpFactory, places, "crash(iter=3,place=1)")
	// The death must have come through the failure detector, not Kill.
	if over.killed != 0 || over.failed != 1 {
		t.Fatalf("tcp run: killed=%d failed=%d, want 0/1", over.killed, over.failed)
	}
	if local.signature != over.signature || local.signature != "3@step:p1" {
		t.Fatalf("kill fingerprints: local %q, tcp %q; want both 3@step:p1", local.signature, over.signature)
	}
	// Worker-side execution must have been live before the SIGKILL and
	// re-established on the shrunken group after the restore — the
	// replacement workers' cold caches refill and dispatch resumes.
	if over.workerTasksAtKill == 0 {
		t.Fatal("tcp run: no worker-side kernels before the kill")
	}
	if over.workerTasks <= over.workerTasksAtKill {
		t.Fatalf("tcp run: worker tasks stuck at %d after the kill (total %d) — dispatch never recovered",
			over.workerTasksAtKill, over.workerTasks)
	}
	if local.workerTasks != 0 {
		t.Fatalf("local run executed %d worker tasks, want 0", local.workerTasks)
	}
	if len(local.bits) != len(over.bits) {
		t.Fatalf("iterate lengths diverge: %d vs %d", len(local.bits), len(over.bits))
	}
	for i := range local.bits {
		if local.bits[i] != over.bits[i] {
			t.Fatalf("final iterate diverges at [%d]: %#x vs %#x", i, local.bits[i], over.bits[i])
		}
	}
}

// restoreMeter wraps an application and records how many bytes the
// coordinator's tcp wire counted during each of its Restore calls.
type restoreMeter struct {
	core.IterativeApp
	wire     *obs.Counter
	restores []int64
}

func (m *restoreMeter) Restore(pg apgas.PlaceGroup, store *core.AppResilientStore, iter int64, rebalance bool) error {
	before := m.wire.Value()
	err := m.IterativeApp.Restore(pg, store, iter, rebalance)
	m.restores = append(m.restores, m.wire.Value()-before)
	return err
}

// pageRankRestoreRun runs PageRank over 3 places with checkpoints every 2
// iterations and, when kill is set, place 2 killed after iteration 3 and
// replaced elastically. It returns the final ranks and the tcp wire bytes
// of each Restore (none on the local backend).
func pageRankRestoreRun(t *testing.T, overTCP bool, cfg apps.PageRankConfig, kill bool) (la.Vector, []int64) {
	t.Helper()
	reg := obs.NewRegistry()
	opts := []apgas.Option{apgas.WithPlaces(3), apgas.WithResilient(true), apgas.WithObs(reg)}
	if overTCP {
		opts = append(opts, apgas.WithTransport(tcp.New(tcp.WithHeartbeat(25*time.Millisecond, 2*time.Second), tcp.WithObs(reg))))
	}
	rt, err := apgas.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	killed := !kill
	exec, err := core.New(rt,
		core.WithCheckpointInterval(2),
		core.WithRestoreMode(core.ReplaceElastic),
		core.WithAfterStep(func(iter int64) {
			if !killed && iter == 3 {
				killed = true
				if err := rt.Kill(rt.Place(2)); err != nil {
					t.Errorf("kill: %v", err)
				}
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := apps.NewPageRank(rt, cfg, exec.ActiveGroup())
	if err != nil {
		t.Fatal(err)
	}
	app := &restoreMeter{IterativeApp: pr, wire: reg.Counter("transport.tcp.wire_bytes")}
	if err := exec.Run(app); err != nil {
		t.Fatalf("run (transport %s): %v", rt.TransportName(), err)
	}
	if n := exec.Metrics().Restores; kill && (n != 1 || len(app.restores) != 1) {
		t.Fatalf("%d restores, %d Restore calls; want 1 each", n, len(app.restores))
	}
	ranks, err := pr.Ranks()
	if err != nil {
		t.Fatal(err)
	}
	return ranks, app.restores
}

// TestTCPRestoreWritesNoDiscardedPayload pins what a restore sends its
// workers on tcp: the replica fetches, shard reads and repair copies are
// charged by size in footprint-only DATA frames, so the coordinator's wire
// carries less during the whole Restore than one block of G — where it
// used to carry every fetched entry's bytes to a worker that threw them
// away. The recovered ranks are bitwise the failure-free local run's.
func TestTCPRestoreWritesNoDiscardedPayload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := apps.PageRankConfig{Nodes: 3 * 400, OutDegree: 8, Iterations: 8, Seed: 7}
	want, _ := pageRankRestoreRun(t, false, cfg, false)
	got, restores := pageRankRestoreRun(t, true, cfg, true)
	if !slices.Equal(vectorBits(got), vectorBits(want)) {
		t.Fatal("recovered tcp ranks differ from the failure-free local run")
	}

	// The smallest encoded block of the same G.
	rt, err := apgas.New(apgas.WithPlaces(3))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	g, err := dist.MakeDistBlockMatrix(rt, block.Sparse, cfg.Nodes, cfg.Nodes, 3, 1, 3, 1, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.InitSparseColumns(apps.LinkData{Seed: cfg.Seed, Nodes: cfg.Nodes, OutDegree: cfg.OutDegree}.Column); err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, 3)
	if err := apgas.ForEachPlace(rt, rt.World(), func(ctx *apgas.Ctx, idx int) {
		g.LocalBlocks(ctx).Each(func(_ int, b *block.MatrixBlock) { sizes[idx] = b.EncodedSize() })
	}); err != nil {
		t.Fatal(err)
	}
	blockBytes := int64(slices.Min(sizes))
	t.Logf("wire bytes during Restore: %d; smallest G block: %d bytes", restores[0], blockBytes)
	if restores[0] >= blockBytes {
		t.Fatalf("the coordinator's wire carried %d bytes during Restore, not below one %d-byte block of G", restores[0], blockBytes)
	}
}
