package dist

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/grid"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/par"
	"github.com/rgml/rgml/internal/snapshot"
)

// execTransport is a minimal in-process transport with a data plane: it
// executes dispatched kernels against real per-place stores, exactly as a
// tcp worker would, so the dist kernels can be driven end-to-end without
// spawning processes. It records per-dispatch blob counts for the
// ship-once assertions, and can be told to break: failEvery n fails every
// n-th dispatch with a transport error, kernelErr answers every multvec
// dispatch with that kernel-level failure.
type execTransport struct {
	failEvery int
	kernelErr string

	mu      sync.Mutex
	stores  map[int]*kernel.Store
	tasks   []string
	shipped []int
	failed  int
}

func (e *execTransport) Name() string                                { return "exec-fake" }
func (e *execTransport) Start(places int, h transport.Handler) error { return nil }
func (e *execTransport) Send(from, to int, class transport.Class, size int, payload []byte) (time.Duration, error) {
	return 0, nil
}
func (e *execTransport) Kill(place int) error { return nil }
func (e *execTransport) Grow(n int) error     { return nil }
func (e *execTransport) Close() error         { return nil }

func (e *execTransport) Exec(t *kernel.Task) (*kernel.Result, error) {
	if t == nil {
		return nil, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stores == nil {
		e.stores = make(map[int]*kernel.Store)
	}
	place := int(t.Place)
	st := e.stores[place]
	if st == nil {
		st = kernel.NewStore()
		e.stores[place] = st
	}
	e.tasks = append(e.tasks, t.Name)
	e.shipped = append(e.shipped, len(t.Puts))
	if e.failEvery > 0 && len(e.tasks)%e.failEvery == 0 {
		e.failed++
		return nil, errors.New("dist test: injected dispatch failure")
	}
	if e.kernelErr != "" && t.Name == multVecKernelName {
		return &kernel.Result{Err: e.kernelErr}, nil
	}
	// The blobs are borrowed until Exec returns (transport.Executor); a
	// store that keeps them copies, as a worker's socket read does.
	remote := *t
	remote.Puts = make([]kernel.Blob, len(t.Puts))
	for i, b := range t.Puts {
		b.Data = append([]byte(nil), b.Data...)
		remote.Puts[i] = b
	}
	return kernel.Run(&kernel.Exec{Place: place, Store: st}, &remote), nil
}

func (e *execTransport) dispatches() (names []string, shipped []int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.tasks...), append([]int(nil), e.shipped...)
}

func newExecRT(t *testing.T, places int) (*apgas.Runtime, *execTransport) {
	t.Helper()
	et := &execTransport{}
	rt, _ := newExecRTWith(t, places, et)
	return rt, et
}

func newExecRTWith(t *testing.T, places int, et *execTransport) (*apgas.Runtime, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	rt, err := apgas.New(apgas.WithPlaces(places), apgas.WithResilient(true), apgas.WithTransport(et), apgas.WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt, reg
}

// The multVecOn program's shape: an mvRows×mvCols dense matrix in 8×3
// blocks over a 4×1 place grid.
const mvRows, mvCols, mvRowBlocks, mvColBlocks = 24, 9, 8, 3

// multVecOn runs an iterated y = m·x / RootApply / Sync program on rt and
// returns the final y. Every backend runs the identical program and must
// produce output bitwise equal to multVecReference.
func multVecOn(t *testing.T, rt *apgas.Runtime, iters int) la.Vector {
	t.Helper()
	const rows, cols = mvRows, mvCols
	pg := rt.World()
	m := makeDenseDBM(t, rt, rows, cols, mvRowBlocks, mvColBlocks, 4, 1, pg)
	x, err := MakeDupVector(rt, cols, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Init(func(i int) float64 { return float64(i)*0.375 + 1 }); err != nil {
		t.Fatal(err)
	}
	y, err := MakeDistVector(rt, rows, pg)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < iters; it++ {
		if err := m.MultVec(x, y); err != nil {
			t.Fatal(err)
		}
		// Update x the way the solvers do — at the root, then Sync — so
		// later iterations ship each new version of x to the workers.
		if err := x.RootApply(func(local la.Vector) {
			for i := range local {
				local[i] += 1.0 / float64(it+3)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := x.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.MultVec(x, y); err != nil {
		t.Fatal(err)
	}
	got, err := y.ToVector()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// multVecReference computes what multVecOn must return with no runtime at
// all: blocks built straight from the grid, one serial MultVecAssign per
// block, partials combined in canonical (row-block, then column-block)
// order, and the same root update between iterations.
func multVecReference(t *testing.T, iters int) la.Vector {
	t.Helper()
	g, err := grid.New(mvRows, mvCols, mvRowBlocks, mvColBlocks)
	if err != nil {
		t.Fatal(err)
	}
	x := la.NewVector(mvCols)
	for i := range x {
		x[i] = float64(i)*0.375 + 1
	}
	y := la.NewVector(mvRows)
	mult := func() {
		y.Zero()
		for rb := 0; rb < g.RowBlocks; rb++ {
			for cb := 0; cb < g.ColBlocks; cb++ {
				b := block.NewDenseBlock(g, rb, cb)
				for j := 0; j < b.Cols; j++ {
					for i := 0; i < b.Rows; i++ {
						b.Dense.Set(i, j, denseInit(b.Row0+i, b.Col0+j))
					}
				}
				part := la.NewVector(b.Rows)
				b.MultVecAssign(x[b.Col0:b.Col0+b.Cols], part)
				y[b.Row0 : b.Row0+b.Rows].Add(part)
			}
		}
	}
	for it := 0; it < iters; it++ {
		mult()
		for i := range x {
			x[i] += 1.0 / float64(it+3)
		}
	}
	mult()
	return y
}

// TestMultVecKernelBitIdenticalToReference pins the one dispatch path's
// correctness contract: the same MultVec/RootApply/Sync program produces
// the reference's exact bits whether every kernel runs in-process on the
// live objects (local backend) or inside worker-side bodies on shipped
// bytes (exec-fake; place zero in-process) — the float64 codec roundtrip
// and the single kernel body leave no room for drift.
func TestMultVecKernelBitIdenticalToReference(t *testing.T) {
	const iters = 3
	want := multVecReference(t, iters)
	check := func(leg string, got la.Vector) {
		t.Helper()
		if !bitsEqualVec(got, want) {
			t.Fatalf("%s: y = %v, want %v (bitwise)", leg, got, want)
		}
	}

	localReg := obs.NewRegistry()
	rtL, err := apgas.New(apgas.WithPlaces(4), apgas.WithResilient(true), apgas.WithObs(localReg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rtL.Shutdown)
	check("in-process", multVecOn(t, rtL, iters))
	// 4 MultVecs × 4 places, none in a worker.
	if got := localReg.CounterValue("apgas.tasks.kernel_local"); got != 16 || rtL.Stats().WorkerTasks != 0 {
		t.Fatalf("local backend: kernel_local = %d, WorkerTasks = %d; want 16, 0", got, rtL.Stats().WorkerTasks)
	}

	rtE, et := newExecRT(t, 4)
	check("exec-fake", multVecOn(t, rtE, iters))
	names, _ := et.dispatches()
	mv := 0
	for _, n := range names {
		if n == multVecKernelName {
			mv++
		}
	}
	// 4 MultVecs × 3 non-coordinator places.
	if mv != 12 {
		t.Fatalf("multvec kernel dispatched %d times, want 12 (names: %v)", mv, names)
	}
	if got := rtE.Stats().WorkerTasks; got == 0 {
		t.Fatal("WorkerTasks = 0 on the data-plane backend")
	}
}

// TestMultVecKernelShipsBlocksOnce pins the mirror economics: the matrix
// blocks cross the data plane on the first MultVec only; with x unchanged
// a repeat MultVec ships zero blobs, and after a RootApply+Sync only the
// one-vector x re-crosses, as an input inside the MultVec's own task.
func TestMultVecKernelShipsBlocksOnce(t *testing.T) {
	rt, et := newExecRT(t, 2)
	const rows, cols = 8, 4
	pg := rt.World()
	m := makeDenseDBM(t, rt, rows, cols, 2, 1, 2, 1, pg)
	x, err := MakeDupVector(rt, cols, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Init(func(i int) float64 { return float64(i) }); err != nil {
		t.Fatal(err)
	}
	y, err := MakeDistVector(rt, rows, pg)
	if err != nil {
		t.Fatal(err)
	}

	if err := m.MultVec(x, y); err != nil {
		t.Fatal(err)
	}
	_, shipped := et.dispatches()
	first := len(shipped)
	if first == 0 {
		t.Fatal("no dispatches on a data-plane backend")
	}
	var coldBlobs int
	for _, n := range shipped {
		coldBlobs += n
	}
	if coldBlobs == 0 {
		t.Fatal("cold MultVec shipped no blobs")
	}

	// Same x version: everything is cached worker-side.
	if err := m.MultVec(x, y); err != nil {
		t.Fatal(err)
	}
	_, shipped = et.dispatches()
	for i := first; i < len(shipped); i++ {
		if shipped[i] != 0 {
			t.Fatalf("warm MultVec dispatch %d shipped %d blobs, want 0", i, shipped[i])
		}
	}
	warm := len(shipped)

	// Root update + Sync moves x to a new version, but the blocks —
	// unchanged — must not re-ship, and Sync itself dispatches nothing:
	// the MultVec's own task at the worker place carries exactly the one
	// x blob.
	if err := x.RootApply(func(local la.Vector) { local[0] += 1 }); err != nil {
		t.Fatal(err)
	}
	if err := x.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.MultVec(x, y); err != nil {
		t.Fatal(err)
	}
	names, shipped := et.dispatches()
	if len(names)-warm != first {
		t.Fatalf("post-Sync MultVec dispatched %v, want %d multvec tasks", names[warm:], first)
	}
	for i := warm; i < len(shipped); i++ {
		if names[i] != multVecKernelName || shipped[i] != 1 {
			t.Fatalf("post-Sync dispatch %d is %s shipping %d blobs, want %s shipping the one x blob", i, names[i], shipped[i], multVecKernelName)
		}
	}
}

// TestSyncMovesTheVersion pins why Sync bumps the version: a kernel that
// reads x at a non-root place between RootApply and Sync caches that
// place's stale duplicate under the current version, so a Sync that left
// the version alone would let the next MultVec compute on the stale copy.
func TestSyncMovesTheVersion(t *testing.T) {
	rt, et := newExecRT(t, 2)
	const rows, cols = 8, 4
	pg := rt.World()
	m := makeDenseDBM(t, rt, rows, cols, 2, 1, 2, 1, pg)
	x, err := MakeDupVector(rt, cols, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Init(func(i int) float64 { return float64(i) }); err != nil {
		t.Fatal(err)
	}
	y, err := MakeDistVector(rt, rows, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.RootApply(func(local la.Vector) { local.Scale(2) }); err != nil {
		t.Fatal(err)
	}
	// A kernel at the worker place reads x now, while its duplicate still
	// holds the pre-RootApply values.
	if err := m.MultVec(x, y); err != nil {
		t.Fatal(err)
	}
	dispatched, _ := et.dispatches()
	if len(dispatched) == 0 {
		t.Fatal("the pre-Sync MultVec dispatched nothing to the worker place")
	}
	if err := x.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.MultVec(x, y); err != nil {
		t.Fatal(err)
	}
	got, err := y.ToVector()
	if err != nil {
		t.Fatal(err)
	}

	xs, err := x.Root()
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.New(rows, cols, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := la.NewVector(rows)
	for rb := 0; rb < g.RowBlocks; rb++ {
		b := block.NewDenseBlock(g, rb, 0)
		for j := 0; j < b.Cols; j++ {
			for i := 0; i < b.Rows; i++ {
				b.Dense.Set(i, j, denseInit(b.Row0+i, b.Col0+j))
			}
		}
		b.MultVecAssign(xs[b.Col0:b.Col0+b.Cols], want[b.Row0:b.Row0+b.Rows])
	}
	if !bitsEqualVec(got, want) {
		t.Fatalf("MultVec after Sync: y = %v, want %v (the worker kept the pre-Sync x)", got, want)
	}
}

// TestMakeSnapshotDispatchesNoKernel pins that a checkpoint ships no
// bytes into worker bodies: every entry and backup lives in the
// snapshot's coordinator-side store, which is all a restore reads, so
// saving a distributed vector, a duplicated vector and a block matrix on
// a data-plane backend dispatches no kernel task at all.
func TestMakeSnapshotDispatchesNoKernel(t *testing.T) {
	rt, et := newExecRT(t, 3)
	pg := rt.World()
	dv, err := MakeDistVector(rt, 12, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dv.Init(func(i int) float64 { return float64(i) }); err != nil {
		t.Fatal(err)
	}
	xv, err := MakeDupVector(rt, 5, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := xv.Init(func(i int) float64 { return float64(i) + 0.5 }); err != nil {
		t.Fatal(err)
	}
	m := makeDenseDBM(t, rt, 9, 4, 3, 1, 3, 1, pg)
	for _, obj := range []snapshot.Snapshottable{dv, xv, m} {
		s, err := obj.MakeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		s.Destroy()
	}
	if names, _ := et.dispatches(); len(names) != 0 {
		t.Fatalf("MakeSnapshot dispatched kernel tasks %v, want none", names)
	}
}

// TestDupVectorRestoreBumpsVersion guards the restore/cache-staleness
// hazard: restoring a checkpoint rewinds content, so the version must
// move or a worker cache would keep serving the diverged value at the
// old version.
func TestDupVectorRestoreBumpsVersion(t *testing.T) {
	rt := newRT(t, 2)
	x, err := MakeDupVector(rt, 4, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Init(func(i int) float64 { return float64(i) }); err != nil {
		t.Fatal(err)
	}
	snap, err := x.MakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Destroy()
	before := x.ver
	if err := x.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if x.ver == before {
		t.Fatal("RestoreSnapshot left ver unchanged")
	}
	// After a Remake the survivors validate and are kept: no load, and
	// the version must still move.
	if err := x.Remake(rt.World()); err != nil {
		t.Fatal(err)
	}
	before = x.ver
	if err := x.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if x.ver == before {
		t.Fatal("RestoreSnapshot of kept survivors left ver unchanged")
	}
}

// smallMultVec builds the operands of an 8×4 MultVec over rt's two places:
// the matrix in rowBlocks×1 blocks, split evenly between the places, and
// x[i] = i+1.
func smallMultVec(t *testing.T, rt *apgas.Runtime, rowBlocks int) (*DistBlockMatrix, *DupVector, *DistVector) {
	t.Helper()
	const rows, cols = 8, 4
	m := makeDenseDBM(t, rt, rows, cols, rowBlocks, 1, 2, 1, rt.World())
	x, err := MakeDupVector(rt, cols, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Init(func(i int) float64 { return float64(i) + 1 }); err != nil {
		t.Fatal(err)
	}
	y, err := MakeDistVector(rt, rows, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	return m, x, y
}

// TestMultVecKernelExecFailureKillsPlace: an executor that fails every
// dispatch with a transport error — the data plane is "up" (the probe
// succeeds) but no kernel ever lands remotely — makes MultVec fail with
// the worker place's death, never compute its blocks at the coordinator.
func TestMultVecKernelExecFailureKillsPlace(t *testing.T) {
	et := &execTransport{failEvery: 1}
	rt, reg := newExecRTWith(t, 2, et)
	m, x, y := smallMultVec(t, rt, 2)
	err := m.MultVec(x, y)
	if !apgas.IsDeadPlace(err) {
		t.Fatalf("MultVec under dispatch failure = %v, want DeadPlaceError", err)
	}
	if !rt.IsDead(rt.Place(1)) {
		t.Fatal("the place whose dispatch failed is still alive")
	}
	if rt.Stats().WorkerTasks != 0 {
		t.Fatal("failing executor still counted worker tasks")
	}
	// Only place zero's own kernel ran in-process.
	if got := reg.CounterValue("apgas.tasks.kernel_local"); got != 1 {
		t.Fatalf("kernel_local = %d, want 1 (place zero only)", got)
	}
}

// TestRekeyLostToFailedDispatchIsForgotten: the re-keys a Remake queues
// for a worker ride the next dispatch there. When that dispatch fails at
// the transport, the place is dead and the runtime forgets what it had
// shipped there: MultVec fails with DeadPlaceError, and a retry
// dispatches nothing more to the dead place.
func TestRekeyLostToFailedDispatchIsForgotten(t *testing.T) {
	et := &execTransport{}
	rt, reg := newExecRTWith(t, 2, et)
	m, x, y := smallMultVec(t, rt, 2)
	if err := m.MultVec(x, y); err != nil {
		t.Fatal(err)
	}
	if err := m.Remake(rt.World(), true); err != nil {
		t.Fatal(err)
	}
	if reg.CounterValue("apgas.kernel.rekeyed") == 0 {
		t.Fatal("a Remake onto the same group kept no worker-resident block")
	}
	et.mu.Lock()
	et.failEvery = len(et.tasks) + 1 // the next dispatch, which carries the re-keys
	et.mu.Unlock()
	for i := 0; i < 2; i++ {
		if err := m.MultVec(x, y); !apgas.IsDeadPlace(err) {
			t.Fatalf("MultVec %d after the lost re-key = %v, want DeadPlaceError", i, err)
		}
		if !rt.IsDead(rt.Place(1)) {
			t.Fatalf("MultVec %d: the place whose dispatch failed is still alive", i)
		}
	}
	if names, _ := et.dispatches(); len(names) != et.failEvery {
		t.Fatalf("%d dispatches, want %d: the retry dispatched to the dead place", len(names), et.failEvery)
	}
}

// TestMultVecKernelErrorIsReturned: a kernel-level failure in a worker is
// MultVec's error — loud, not masked by an in-process recomputation.
func TestMultVecKernelErrorIsReturned(t *testing.T) {
	et := &execTransport{kernelErr: "injected store disagreement"}
	rt, reg := newExecRTWith(t, 2, et)
	m, x, y := smallMultVec(t, rt, 2)
	before := reg.CounterValue("apgas.tasks.kernel_local")
	err := m.MultVec(x, y)
	if err == nil || !strings.Contains(err.Error(), "injected store disagreement") {
		t.Fatalf("MultVec = %v, want the kernel's error", err)
	}
	// Only place zero's own kernel ran in-process.
	if got := reg.CounterValue("apgas.tasks.kernel_local") - before; got != 1 {
		t.Fatalf("kernel_local moved by %d, want 1 (place zero only)", got)
	}
}

// TestMultVecKernelShortXIsOneError drives the kernel's own error path
// under -race: a place owning two blocks whose x duplicate is too short
// fails both bounds checks, which must yield exactly one kernel error —
// returned by MultVec — with no write shared between the block fan's
// chunks.
func TestMultVecKernelShortXIsOneError(t *testing.T) {
	rt := newRT(t, 2)
	m, x, y := smallMultVec(t, rt, 4)
	err := rt.Finish(func(ctx *apgas.Ctx) {
		ctx.At(rt.Place(1), func(c *apgas.Ctx) {
			if n := m.LocalBlocks(c).Len(); n < 2 {
				t.Errorf("place 1 owns %d blocks, want at least 2", n)
			}
			x.plh.SetLocal(c, x.plh.Local(c)[:2])
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	err = m.MultVec(x, y)
	if err == nil || strings.Count(err.Error(), "short of block") != 1 {
		t.Fatalf("MultVec with a short x at place 1 = %v, want one bounds error", err)
	}
}

// multVecAllocs returns the allocations of one warm MultVec of a 256×256
// sparse matrix cut into blocksPerPlace row blocks per place over a
// 4-place local runtime.
func multVecAllocs(t *testing.T, blocksPerPlace int) float64 {
	t.Helper()
	const n = 256
	rt := newRT(t, 4)
	pg := rt.World()
	m, err := MakeDistBlockMatrix(rt, block.Sparse, n, n, 4*blocksPerPlace, 1, 4, 1, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InitSparseColumns(sparseColInit(n)); err != nil {
		t.Fatal(err)
	}
	x, err := MakeDupVector(rt, n, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Init(func(i int) float64 { return float64(i) + 1 }); err != nil {
		t.Fatal(err)
	}
	y, err := MakeDistVector(rt, n, pg)
	if err != nil {
		t.Fatal(err)
	}
	mult := func() {
		if err := m.MultVec(x, y); err != nil {
			t.Fatal(err)
		}
	}
	mult() // size the scratch partials
	return testing.AllocsPerRun(50, mult)
}

// TestMultVecInProcessAllocs: on the local backend every MultVec kernel
// runs in-process and writes each block's partial straight into the
// place's scratch vector, so a block costs only its kernel input, the
// entry its ref resolves to (the live block, no store) and its SpMV
// call's parallel region — no partial vector, no wire frame, no boxed
// dimension check. Measured at one kernel worker (the block fan's pool
// bookkeeping then does not depend on the host), 1 → 4 blocks per place
// cost 140 → 228 allocations with a fresh partial per block and 134 → 186
// with the scratch sink.
func TestMultVecInProcessAllocs(t *testing.T) {
	defer par.SetWorkers(par.Workers())
	par.SetWorkers(1)
	one, four := multVecAllocs(t, 1), multVecAllocs(t, 4)
	if perBlock := (four - one) / 12; perBlock > 5 {
		t.Fatalf("in-process MultVec: %.0f → %.0f allocations for 4 → 16 blocks, %.2f per block; want at most 5",
			one, four, perBlock)
	}
}
