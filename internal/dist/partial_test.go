package dist

import (
	"fmt"
	"math"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/snapshot"
)

// newInstrumentedRT is newRT with an obs registry attached, so the
// partial-restore tests can assert traffic counters.
func newInstrumentedRT(t *testing.T, places int) (*apgas.Runtime, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	rt, err := apgas.New(apgas.WithPlaces(places), apgas.WithResilient(true), apgas.WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt, reg
}

// TestDistBlockMatrixPartialRestoreRetained checks the surviving-place
// path: after an in-position replacement, blocks retained through Remake
// are kept when their digest matches the checkpoint, a survivor whose
// content moved past the checkpoint is rolled back, and only those two
// block payloads are loaded from the store.
func TestDistBlockMatrixPartialRestoreRetained(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 5)
	pg := apgas.PlaceGroup{rt.Place(0), rt.Place(1), rt.Place(2), rt.Place(3)}
	m, err := MakeDistBlockMatrix(rt, block.Dense, 8, 8, 2, 2, 2, 2, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InitDense(func(i, j int) float64 { return float64(i + j) }); err != nil {
		t.Fatal(err)
	}
	s, err := m.MakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()

	// One survivor (place 3's block) advances past the checkpoint.
	err = apgas.ForEachPlace(rt, pg, func(ctx *apgas.Ctx, idx int) {
		if idx != 3 {
			return
		}
		m.LocalBlocks(ctx).Each(func(id int, b *block.MatrixBlock) {
			b.Dense.Set(0, 0, 123)
			b.Touch()
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	// Kill place 1, replace it in-position by the spare (place 4).
	if err := rt.Kill(rt.Place(1)); err != nil {
		t.Fatal(err)
	}
	newPG := apgas.PlaceGroup{rt.Place(0), rt.Place(4), rt.Place(2), rt.Place(3)}
	if err := m.Remake(newPG, true); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("dist.remake.blocks.retained").Value(); got != 3 {
		t.Fatalf("remake.blocks.retained = %d, want 3", got)
	}

	loadBytes0 := reg.Counter("snapshot.load.bytes").Value()
	if err := m.RestoreSnapshot(s); err != nil {
		t.Fatal(err)
	}
	// Places 0 and 2 keep their blocks; the spare's block and the diverged
	// survivor's block load.
	if got := reg.Counter("dist.restore.partial.kept").Value(); got != 2 {
		t.Errorf("partial.kept = %d, want 2", got)
	}
	if got := reg.Counter("dist.restore.partial.loaded").Value(); got != 2 {
		t.Errorf("partial.loaded = %d, want 2", got)
	}
	if got := reg.Counter("snapshot.load.bytes").Value() - loadBytes0; got <= 0 || got > 2*int64(4*4*8+7*8+64) {
		t.Errorf("snapshot.load.bytes = %d, want two block payloads", got)
	}

	// The content is the checkpoint's everywhere — including the diverged
	// survivor, whose mutation was rolled back.
	got, err := m.ToDense()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if got.At(i, j) != float64(i+j) {
				t.Fatalf("restored[%d,%d] = %v, want %v", i, j, got.At(i, j), float64(i+j))
			}
		}
	}
}

// TestDistVectorPartialRestore checks the DistVector surviving-place
// partial restore.
func TestDistVectorPartialRestore(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 5)
	pg := apgas.PlaceGroup{rt.Place(0), rt.Place(1), rt.Place(2), rt.Place(3)}
	v, err := MakeDistVector(rt, 12, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Init(func(i int) float64 { return float64(i) + 0.5 }); err != nil {
		t.Fatal(err)
	}
	if err := v.Scale(2); err != nil {
		t.Fatal(err)
	}
	s3, err := v.MakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Destroy()

	// Kill place 1, replace in-position, restore partially: three
	// survivors keep their segments, only the replacement loads.
	if err := rt.Kill(rt.Place(1)); err != nil {
		t.Fatal(err)
	}
	newPG := apgas.PlaceGroup{rt.Place(0), rt.Place(4), rt.Place(2), rt.Place(3)}
	if err := v.Remake(newPG); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("dist.remake.segments.retained").Value(); got != 3 {
		t.Fatalf("remake.segments.retained = %d, want 3", got)
	}
	if err := v.RestoreSnapshot(s3); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("dist.restore.partial.kept").Value(); got != 3 {
		t.Errorf("partial.kept = %d, want 3", got)
	}
	if got := reg.Counter("dist.restore.partial.loaded").Value(); got != 1 {
		t.Errorf("partial.loaded = %d, want 1", got)
	}
	got, err := v.ToVector()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := 2 * (float64(i) + 0.5); got[i] != want {
			t.Fatalf("restored[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// TestDupVectorPartialRestoreBroadcasts checks the duplicated-object
// partial restore: one validated survivor re-broadcasts to the places
// that lost their duplicate, with zero snapshot loads — even when the
// dead place is the snapshot's root saver.
func TestDupVectorPartialRestoreBroadcasts(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 5)
	// The group starts at place 1 so the root saver (pg[0]) is mortal;
	// place 0 stands by as the replacement.
	pg := apgas.PlaceGroup{rt.Place(1), rt.Place(2), rt.Place(3), rt.Place(4)}
	v, err := MakeDupVector(rt, 6, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Init(func(i int) float64 { return float64(i * i) }); err != nil {
		t.Fatal(err)
	}
	s, err := v.MakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()

	// Kill the root saver itself: validation must probe the digest via the
	// backup replica, and the broadcast source is a surviving duplicate.
	if err := rt.Kill(rt.Place(1)); err != nil {
		t.Fatal(err)
	}
	newPG := apgas.PlaceGroup{rt.Place(0), rt.Place(2), rt.Place(3), rt.Place(4)}
	if err := v.Remake(newPG); err != nil {
		t.Fatal(err)
	}
	loads0 := reg.Counter("snapshot.loads").Value()
	if err := v.RestoreSnapshot(s); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("dist.restore.partial.kept").Value(); got != 3 {
		t.Errorf("partial.kept = %d, want 3", got)
	}
	if got := reg.Counter("dist.restore.partial.bcast").Value(); got != 1 {
		t.Errorf("partial.bcast = %d, want 1", got)
	}
	if got := reg.Counter("snapshot.loads").Value(); got != loads0 {
		t.Errorf("partial dup restore performed %d snapshot loads, want 0", got-loads0)
	}
	want := la.Vector{0, 1, 4, 9, 16, 25}
	for idx := range newPG {
		if got := readDupAt(t, v, idx); !got.EqualApprox(want, 0) {
			t.Fatalf("duplicate at index %d = %v, want %v", idx, got, want)
		}
	}
}

// TestDupVectorDivergedSurvivorFallback checks that a DupVector partial
// restore with no valid survivor (every retained duplicate diverged from
// the checkpoint) falls back to the full restore.
func TestDupVectorDivergedSurvivorFallback(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 5)
	pg := apgas.PlaceGroup{rt.Place(0), rt.Place(1), rt.Place(2), rt.Place(3)}
	v, err := MakeDupVector(rt, 6, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Init(func(i int) float64 { return float64(i + 1) }); err != nil {
		t.Fatal(err)
	}
	s2, err := v.MakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Destroy()

	// Every duplicate advances past the checkpoint, then a failure hits:
	// no survivor validates, so the partial restore degrades to loading
	// duplicates from the store — and still lands on the checkpoint value.
	if err := v.AllApply(func(local la.Vector) { local.CellAdd(10) }); err != nil {
		t.Fatal(err)
	}
	if err := rt.Kill(rt.Place(1)); err != nil {
		t.Fatal(err)
	}
	newPG := apgas.PlaceGroup{rt.Place(0), rt.Place(4), rt.Place(2), rt.Place(3)}
	if err := v.Remake(newPG); err != nil {
		t.Fatal(err)
	}
	kept0 := reg.Counter("dist.restore.partial.kept").Value()
	if err := v.RestoreSnapshot(s2); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("dist.restore.partial.kept").Value(); got != kept0 {
		t.Errorf("partial.kept moved by %d, want 0 (no survivor validates)", got-kept0)
	}
	want := la.Vector{1, 2, 3, 4, 5, 6}
	for idx := range newPG {
		if got := readDupAt(t, v, idx); !got.EqualApprox(want, 0) {
			t.Fatalf("duplicate at index %d = %v, want %v", idx, got, want)
		}
	}
}

// TestDupDenseMatrixPartialRestore checks the duplicated dense matrix
// survivor-broadcast partial restore.
func TestDupDenseMatrixPartialRestore(t *testing.T) {
	rt, reg := newInstrumentedRT(t, 5)
	pg := apgas.PlaceGroup{rt.Place(0), rt.Place(1), rt.Place(2), rt.Place(3)}
	m, err := MakeDupDenseMatrix(rt, 3, 2, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(func(i, j int) float64 { return float64(10*i + j) }); err != nil {
		t.Fatal(err)
	}
	s2, err := m.MakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Destroy()

	if err := rt.Kill(rt.Place(2)); err != nil {
		t.Fatal(err)
	}
	newPG := apgas.PlaceGroup{rt.Place(0), rt.Place(1), rt.Place(4), rt.Place(3)}
	if err := m.Remake(newPG); err != nil {
		t.Fatal(err)
	}
	loads0 := reg.Counter("snapshot.loads").Value()
	if err := m.RestoreSnapshot(s2); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("dist.restore.partial.kept").Value(); got != 3 {
		t.Errorf("partial.kept = %d, want 3", got)
	}
	if got := reg.Counter("dist.restore.partial.bcast").Value(); got != 1 {
		t.Errorf("partial.bcast = %d, want 1", got)
	}
	if got := reg.Counter("snapshot.loads").Value(); got != loads0 {
		t.Errorf("partial dup restore performed %d snapshot loads, want 0", got-loads0)
	}
	for idx := range newPG {
		got := readDupDenseAt(t, m, idx)
		for i := 0; i < 3; i++ {
			for j := 0; j < 2; j++ {
				if got.At(i, j) != float64(10*i+j) {
					t.Fatalf("duplicate %d at [%d,%d] = %v, want %v", idx, i, j, got.At(i, j), float64(10*i+j))
				}
			}
		}
	}
}

// TestFullRestoreLoadsEveryFragment pins the save and the restore for
// every snapshottable class under both a replicated and an erasure-coded
// store, with and without compression: MakeSnapshot restores the same bits
// over scribbled state. Then place 1 dies and a Remake retains the three
// survivors' fragments. If the survivors are scribbled after the Remake,
// each fails its digest check and RestoreSnapshot loads all four
// fragments; if they are clean, it keeps them and refills only the dead
// owner's fragment.
func TestFullRestoreLoadsEveryFragment(t *testing.T) {
	// subject is one object under test: read returns its whole content.
	type subject struct {
		obj      snapshot.Snapshottable
		read     func() []float64
		scribble func() error
		remake   func(apgas.PlaceGroup) error
	}
	blockMatrix := func(kind block.Kind) func(*testing.T, *apgas.Runtime, apgas.PlaceGroup) subject {
		return func(t *testing.T, rt *apgas.Runtime, pg apgas.PlaceGroup) subject {
			m, err := MakeDistBlockMatrix(rt, kind, 24, 24, 2, 2, 2, 2, pg)
			if err != nil {
				t.Fatal(err)
			}
			if kind == block.Dense {
				err = m.InitDense(func(i, j int) float64 { return math.Sin(float64(3*i + j)) })
			} else {
				err = m.InitSparseColumns(func(j int) ([]int, []float64) {
					return []int{j, (j + 7) % 24}, []float64{1 + float64(j)/24, -0.5}
				})
			}
			if err != nil {
				t.Fatal(err)
			}
			return subject{
				obj: m,
				read: func() []float64 {
					d, err := m.ToDense()
					if err != nil {
						t.Fatal(err)
					}
					return d.Data
				},
				scribble: func() error { return m.Scale(0) },
				remake:   func(pg apgas.PlaceGroup) error { return m.Remake(pg, true) },
			}
		}
	}
	classes := []struct {
		name  string
		build func(*testing.T, *apgas.Runtime, apgas.PlaceGroup) subject
	}{
		{"DistVector", func(t *testing.T, rt *apgas.Runtime, pg apgas.PlaceGroup) subject {
			v, err := MakeDistVector(rt, 301, pg)
			if err != nil {
				t.Fatal(err)
			}
			if err := v.Init(func(i int) float64 { return math.Cos(float64(i) / 3) }); err != nil {
				t.Fatal(err)
			}
			return subject{
				obj: v,
				read: func() []float64 {
					got, err := v.ToVector()
					if err != nil {
						t.Fatal(err)
					}
					return got
				},
				scribble: func() error { return v.Scale(0) },
				remake:   v.Remake,
			}
		}},
		{"DupVector", func(t *testing.T, rt *apgas.Runtime, pg apgas.PlaceGroup) subject {
			v, err := MakeDupVector(rt, 300, pg)
			if err != nil {
				t.Fatal(err)
			}
			if err := v.Init(func(i int) float64 { return math.Sin(float64(i)) }); err != nil {
				t.Fatal(err)
			}
			return subject{
				obj: v,
				read: func() []float64 {
					var all []float64
					for idx := range v.Group() {
						all = append(all, readDupAt(t, v, idx)...)
					}
					return all
				},
				scribble: func() error { return v.AllApply(func(local la.Vector) { local.Fill(-7) }) },
				remake:   v.Remake,
			}
		}},
		{"DupDenseMatrix", func(t *testing.T, rt *apgas.Runtime, pg apgas.PlaceGroup) subject {
			m, err := MakeDupDenseMatrix(rt, 7, 5, pg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Init(func(i, j int) float64 { return math.Sin(float64(5*i + j)) }); err != nil {
				t.Fatal(err)
			}
			return subject{
				obj: m,
				read: func() []float64 {
					var all []float64
					for idx := range m.Group() {
						all = append(all, readDupDenseAt(t, m, idx).Data...)
					}
					return all
				},
				scribble: func() error {
					return m.AllApply(func(local *la.DenseMatrix) { clear(local.Data) })
				},
				remake: m.Remake,
			}
		}},
		{"DupSparseMatrix", func(t *testing.T, rt *apgas.Runtime, pg apgas.PlaceGroup) subject {
			m, err := MakeDupSparseMatrix(rt, 9, 7, pg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.InitColumns(func(j int) ([]int, []float64) {
				return []int{j, (j + 4) % 9}, []float64{math.Cos(float64(j)), 0.25}
			}); err != nil {
				t.Fatal(err)
			}
			return subject{
				obj: m,
				read: func() []float64 {
					var all []float64
					for idx := range m.Group() {
						err := rt.Finish(func(ctx *apgas.Ctx) {
							ctx.At(m.Group()[idx], func(c *apgas.Ctx) {
								all = append(all, m.Local(c).ToDense().Data...)
							})
						})
						if err != nil {
							t.Fatal(err)
						}
					}
					return all
				},
				scribble: func() error {
					return m.AllApply(func(local *la.SparseCSR) { *local = *la.NewSparseCSR(9, 7) })
				},
				remake: m.Remake,
			}
		}},
		{"DistBlockMatrixDense", blockMatrix(block.Dense)},
		{"DistBlockMatrixSparse", blockMatrix(block.Sparse)},
	}
	policies := []apgas.StorePolicy{apgas.ReplicateStore(2), apgas.ErasureStore(3, 1)}
	for _, class := range classes {
		for _, pol := range policies {
			for _, spec := range []codec.Spec{{}, losslessSpec} {
				name := fmt.Sprintf("%s/%v/%v", class.name, pol, spec.Mode)
				t.Run(name, func(t *testing.T) {
					for _, row := range []string{"scribbled", "clean"} {
						scribbled := row == "scribbled"
						t.Run(row, func(t *testing.T) {
							rt, reg := newCompressedRT(t, 5, spec, apgas.WithStorePolicy(pol))
							pg := apgas.PlaceGroup{rt.Place(0), rt.Place(1), rt.Place(2), rt.Place(3)}
							sub := class.build(t, rt, pg)
							want := sub.read()

							full, err := sub.obj.MakeSnapshot()
							if err != nil {
								t.Fatal(err)
							}
							defer full.Destroy()
							if err := sub.scribble(); err != nil {
								t.Fatal(err)
							}
							if err := sub.obj.RestoreSnapshot(full); err != nil {
								t.Fatalf("restore: %v", err)
							}
							checkVector(t, sub.read(), want, 0)

							// Kill place 1 and replace it in position: the three
							// survivors retain their fragments through Remake.
							if err := rt.Kill(rt.Place(1)); err != nil {
								t.Fatal(err)
							}
							retained := func() int64 {
								return reg.Counter("dist.remake.segments.retained").Value() +
									reg.Counter("dist.remake.blocks.retained").Value()
							}
							retained0 := retained()
							if err := sub.remake(apgas.PlaceGroup{rt.Place(0), rt.Place(4), rt.Place(2), rt.Place(3)}); err != nil {
								t.Fatal(err)
							}
							if got := retained() - retained0; got != 3 {
								t.Fatalf("Remake retained %d fragments, want 3", got)
							}
							if scribbled {
								if err := sub.scribble(); err != nil {
									t.Fatal(err)
								}
							}
							loads0 := reg.Counter("snapshot.loads").Value()
							if err := sub.obj.RestoreSnapshot(full); err != nil {
								t.Fatal(err)
							}
							if got := reg.Histogram("dist.restore.validate").Count(); got != 3 {
								t.Errorf("dist.restore.validate checked %d survivors, want 3", got)
							}
							// A duplicate refills the dead place by re-broadcast
							// from a kept survivor, every other class by a load.
							loads := reg.Counter("snapshot.loads").Value() - loads0
							refilled := loads + reg.Counter("dist.restore.partial.bcast").Value()
							kept := reg.Counter("dist.restore.partial.kept").Value()
							if scribbled && (kept != 0 || loads != 4) {
								t.Errorf("scribbled survivors: kept %d, loaded %d fragments; want 0 kept, all 4 loaded", kept, loads)
							}
							if !scribbled && (kept != 3 || refilled != 1) {
								t.Errorf("clean survivors: kept %d, refilled %d fragments; want 3 kept, 1 refilled", kept, refilled)
							}
							checkVector(t, sub.read(), want, 0)
						})
					}
				})
			}
		}
	}
}
