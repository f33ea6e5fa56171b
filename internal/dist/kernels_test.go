package dist

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/la"
)

// execTransport is a minimal in-process transport with a data plane: it
// executes dispatched kernels against real per-place stores, exactly as a
// tcp worker would, so the dist kernels can be driven end-to-end without
// spawning processes. It records per-dispatch blob counts for the
// ship-once assertions.
type execTransport struct {
	mu      sync.Mutex
	stores  map[int]*kernel.Store
	tasks   []string
	shipped []int
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
	rt, err := apgas.New(apgas.WithPlaces(places), apgas.WithResilient(true), apgas.WithTransport(et))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt, et
}

// multVecOn runs an iterated y = m·x / RootApply / Sync program on rt and
// returns the final y. Every backend runs the identical program; a
// data-plane backend must produce bitwise-equal output.
func multVecOn(t *testing.T, rt *apgas.Runtime, iters int) la.Vector {
	t.Helper()
	const rows, cols = 24, 9
	pg := rt.World()
	m := makeDenseDBM(t, rt, rows, cols, 8, 3, 4, 1, pg)
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
		// later iterations exercise the forced-put republish path.
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

// TestMultVecKernelBitIdenticalToClosurePath pins the data plane's core
// correctness contract: the same MultVec/RootApply/Sync program produces
// bitwise-identical results whether blocks multiply in the coordinator
// (local backend) or inside worker-side kernel bodies — the float64
// codec roundtrip and the shared MultVecAssign arithmetic leave no room
// for drift.
func TestMultVecKernelBitIdenticalToClosurePath(t *testing.T) {
	local := multVecOn(t, newRT(t, 4), 3)
	rtE, et := newExecRT(t, 4)
	dispatched := multVecOn(t, rtE, 3)
	if len(local) != len(dispatched) {
		t.Fatalf("result lengths differ: %d vs %d", len(local), len(dispatched))
	}
	for i := range local {
		if local[i] != dispatched[i] {
			t.Fatalf("y[%d]: local %v != dispatched %v (bitwise)", i, local[i], dispatched[i])
		}
	}
	names, _ := et.dispatches()
	mv := 0
	for _, n := range names {
		if n == multVecKernelName {
			mv++
		}
	}
	// 4 iterations × 3 non-coordinator places.
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
// one-vector x (as a forced warm put plus nothing else) re-crosses.
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

	// Root update + Sync bumps x across the plane (forced warm puts), but
	// the blocks — unchanged — must not re-ship: every post-Sync dispatch
	// carries at most the single x blob.
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
	for i := warm; i < len(shipped); i++ {
		if shipped[i] > 1 {
			t.Fatalf("post-Sync dispatch %d (%s) shipped %d blobs; blocks re-shipped", i, names[i], shipped[i])
		}
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
	before = x.ver
	if err := x.RestoreSnapshotPartial(snap, nil); err != nil {
		t.Fatal(err)
	}
	if x.ver == before {
		t.Fatal("RestoreSnapshotPartial left ver unchanged")
	}
}

// TestMultVecKernelSurvivesExecFailure verifies the degraded path: an
// executor that fails every dispatch — the data plane is "up" (the probe
// succeeds) but no kernel ever lands remotely — must leave MultVec
// correct through silent coordinator-resident re-execution.
func TestMultVecKernelSurvivesExecFailure(t *testing.T) {
	rt, err := apgas.New(apgas.WithPlaces(2), apgas.WithTransport(&failingExec{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	const rows, cols = 8, 4
	m := makeDenseDBM(t, rt, rows, cols, 2, 1, 2, 1, rt.World())
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
	if err := m.MultVec(x, y); err != nil {
		t.Fatal(err)
	}
	got, err := y.ToVector()
	if err != nil {
		t.Fatal(err)
	}
	dense, _ := m.ToDense()
	xv := la.NewVector(cols)
	for i := range xv {
		xv[i] = float64(i) + 1
	}
	want := la.NewVector(rows)
	dense.MultVec(xv, want)
	if !got.EqualApprox(want, 0) {
		t.Fatalf("MultVec under dispatch failure: got %v want %v", got, want)
	}
	if rt.Stats().WorkerTasks != 0 {
		t.Fatal("failing executor still counted worker tasks")
	}
}

// failingExec has a data plane that always fails dispatches.
type failingExec struct{ execTransport }

func (f *failingExec) Exec(t *kernel.Task) (*kernel.Result, error) {
	if t == nil {
		return nil, nil
	}
	return nil, errDispatch
}

var errDispatch = errors.New("dist test: injected dispatch failure")
