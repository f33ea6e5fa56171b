package dist

import (
	"maps"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/snapshot"
)

// tmvFixture runs z = mᵀ·x programs — a 48×10 matrix in 8×2 blocks over
// four places (two row blocks per place), a distributed x and a
// duplicated z — on the local backend or on tcp with every dispatch
// recorded.
type tmvFixture struct {
	t   *testing.T
	rt  *apgas.Runtime
	reg *obs.Registry
	rec *recordingTCP // nil on the local backend
	m   *DistBlockMatrix
	x   *DistVector
	z   *DupVector
}

const tmvRows, tmvCols = 48, 10

func newTMVFixture(t *testing.T, overTCP bool, kind block.Kind) *tmvFixture {
	t.Helper()
	f := &tmvFixture{t: t, reg: obs.NewRegistry()}
	opts := []apgas.Option{apgas.WithPlaces(4), apgas.WithResilient(true), apgas.WithObs(f.reg)}
	if overTCP {
		f.rec = newRecordingTCP()
		opts = append(opts, apgas.WithTransport(f.rec))
	}
	rt, err := apgas.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	f.rt = rt
	pg := rt.World()
	if f.m, err = MakeDistBlockMatrix(rt, kind, tmvRows, tmvCols, 8, 2, 4, 1, pg); err != nil {
		t.Fatal(err)
	}
	if kind == block.Dense {
		err = f.m.InitDense(denseInit)
	} else {
		err = f.m.InitSparseColumns(sparseColInit(tmvRows))
	}
	if err != nil {
		t.Fatal(err)
	}
	if f.x, err = MakeDistVector(rt, tmvRows, pg); err != nil {
		t.Fatal(err)
	}
	if f.z, err = MakeDupVector(rt, tmvCols, pg); err != nil {
		t.Fatal(err)
	}
	return f
}

// run sets x[i] = fn(i) (a nil fn leaves x as it is), forgets the
// recorded dispatches, computes z = mᵀ·x and returns z, checking that
// every duplicate holds the root's bits.
func (f *tmvFixture) run(fn func(i int) float64) la.Vector {
	f.t.Helper()
	if fn != nil {
		if err := f.x.Init(fn); err != nil {
			f.t.Fatal(err)
		}
	}
	if f.rec != nil {
		f.rec.mu.Lock()
		clear(f.rec.puts)
		f.rec.mu.Unlock()
	}
	if err := f.m.TransMultVec(f.x, f.z); err != nil {
		f.t.Fatal(err)
	}
	z := readDupAt(f.t, f.z, 0)
	for idx := 1; idx < f.z.pg.Size(); idx++ {
		if !bitsEqualVec(readDupAt(f.t, f.z, idx), z) {
			f.t.Fatalf("duplicate %d of z differs from the root", idx)
		}
	}
	return z
}

// wantRowPuts asserts how many times the last run sent x's rows to each
// worker (no-op on the local backend).
func (f *tmvFixture) wantRowPuts(want map[int]int) {
	f.t.Helper()
	if f.rec == nil {
		return
	}
	f.rec.mu.Lock()
	defer f.rec.mu.Unlock()
	got := make(map[int]int)
	for p, refs := range f.rec.puts {
		for _, r := range refs {
			if r.Handle == f.x.plh.Handle() {
				got[p]++
			}
		}
	}
	if !maps.Equal(got, want) {
		f.t.Errorf("x rows sent per place %v, want %v", got, want)
	}
}

func (f *tmvFixture) snapshot(s snapshot.Snapshottable) *snapshot.Snapshot {
	f.t.Helper()
	snap, err := s.MakeSnapshot()
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(snap.Destroy)
	return snap
}

// checkTCP asserts that a tcp run computed its partials in the workers
// and no dispatch failed (a failed dispatch is a place death).
func (f *tmvFixture) checkTCP() {
	f.t.Helper()
	if n := f.reg.CounterValue("apgas.places.failed"); n != 0 {
		f.t.Errorf("%d places died under the run's dispatches", n)
	}
	f.rec.mu.Lock()
	defer f.rec.mu.Unlock()
	if f.rec.names[transMultVecKernelName] == 0 {
		f.t.Errorf("no %s kernel ran in a worker (dispatched: %v)", transMultVecKernelName, f.rec.names)
	}
}

func xA(i int) float64 { return float64(i%7) - 2.75 }
func xB(i int) float64 { return float64(i%5)*0.625 + 1 }

// TestTransMultVecKernelMatchesLocal runs the same TransMultVec program
// over dense and CSR blocks on tcp and on the local backend, through a
// new x, an unchanged x and a shrink-rebalance regrid: every z is bitwise
// equal, the workers compute the partials, and x's rows reach a worker
// once per version of x.
func TestTransMultVecKernelMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	each := map[int]int{1: 1, 2: 1, 3: 1}
	program := func(f *tmvFixture) []la.Vector {
		out := []la.Vector{f.run(xA)}
		f.wantRowPuts(each)
		out = append(out, f.run(nil))
		f.wantRowPuts(map[int]int{})
		out = append(out, f.run(xB))
		f.wantRowPuts(each)
		// Shrink-rebalance: place 3 dies, the matrix is regridded over
		// the survivors (three places, two row blocks each) and restored,
		// and x is re-segmented.
		sm, sx := f.snapshot(f.m), f.snapshot(f.x)
		if err := f.rt.Kill(f.rt.Place(3)); err != nil {
			f.t.Fatal(err)
		}
		pg := apgas.PlaceGroup{f.rt.Place(0), f.rt.Place(1), f.rt.Place(2)}
		for _, err := range []error{
			f.m.Remake(pg, false), f.m.RestoreSnapshot(sm),
			f.x.Remake(pg), f.x.RestoreSnapshot(sx),
			f.z.Remake(pg),
		} {
			if err != nil {
				f.t.Fatal(err)
			}
		}
		out = append(out, f.run(nil))
		f.wantRowPuts(map[int]int{1: 1, 2: 1})
		return out
	}
	for _, kind := range []block.Kind{block.Dense, block.Sparse} {
		t.Run(kind.String(), func(t *testing.T) {
			want := program(newTMVFixture(t, false, kind))
			over := newTMVFixture(t, true, kind)
			got := program(over)
			for i := range want {
				if !bitsEqualVec(got[i], want[i]) {
					t.Fatalf("TransMultVec %d: tcp %v, local %v", i, got[i], want[i])
				}
			}
			over.checkTCP()
		})
	}
}

// TestDistVectorRestoreReshipsRows restores x in place — no Remake, so x
// keeps its handle — after a worker was sent the rows the restore rolls
// back. The restore must move x's version, or the next TransMultVec would
// compute on the worker's diverged rows.
func TestDistVectorRestoreReshipsRows(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	program := func(f *tmvFixture) la.Vector {
		f.run(xA)
		s := f.snapshot(f.x)
		f.run(xB)
		if err := f.x.RestoreSnapshot(s); err != nil {
			f.t.Fatal(err)
		}
		return f.run(nil)
	}
	want := program(newTMVFixture(t, false, block.Dense))
	over := newTMVFixture(t, true, block.Dense)
	if got := program(over); !bitsEqualVec(got, want) {
		t.Fatalf("TransMultVec after an in-place restore: tcp %v, local %v", got, want)
	}
	over.wantRowPuts(map[int]int{1: 1, 2: 1, 3: 1})
	over.checkTCP()
}
