package dist

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/snapshot"
)

// dupObject is the method set the duplicated-object core gives all three
// Dup classes.
type dupObject interface {
	snapshot.Snapshottable
	Group() apgas.PlaceGroup
	MarkDirty()
	Sync() error
	Remake(apgas.PlaceGroup) error
}

// dupSubject is one Dup object under test: set overwrites the calling
// place's duplicate with content derived from seed, get flattens it
// (sparse structure included) for bitwise comparison.
type dupSubject struct {
	obj dupObject
	set func(ctx *apgas.Ctx, seed float64)
	get func(ctx *apgas.Ctx) []float64
}

// dupClass builds one Dup class over pg. bytes is the payload size every
// relay edge counts in apgas.net.bytes.
type dupClass struct {
	name  string
	bytes int
	build func(t *testing.T, rt *apgas.Runtime, pg apgas.PlaceGroup) dupSubject
}

// The sparse fixture: an 8×6 matrix with two nonzeros per column.
const dupSpRows, dupSpCols = 8, 6

func dupSparseColumns(j int) ([]int, []float64) {
	return []int{j, (j + 3) % dupSpRows}, []float64{1, 2}
}

func dupClasses() []dupClass {
	return []dupClass{
		{"DupVector", 8 * 11, func(t *testing.T, rt *apgas.Runtime, pg apgas.PlaceGroup) dupSubject {
			v, err := MakeDupVector(rt, 11, pg)
			if err != nil {
				t.Fatal(err)
			}
			return dupSubject{
				obj: v,
				set: func(ctx *apgas.Ctx, seed float64) {
					for i := range v.Local(ctx) {
						v.Local(ctx)[i] = seed + float64(i)/8
					}
				},
				get: func(ctx *apgas.Ctx) []float64 { return v.Local(ctx).Clone() },
			}
		}},
		{"DupDenseMatrix", 8 * 3 * 4, func(t *testing.T, rt *apgas.Runtime, pg apgas.PlaceGroup) dupSubject {
			m, err := MakeDupDenseMatrix(rt, 3, 4, pg)
			if err != nil {
				t.Fatal(err)
			}
			return dupSubject{
				obj: m,
				set: func(ctx *apgas.Ctx, seed float64) {
					for i := range m.Local(ctx).Data {
						m.Local(ctx).Data[i] = seed - float64(i)/4
					}
				},
				get: func(ctx *apgas.Ctx) []float64 { return slices.Clone(m.Local(ctx).Data) },
			}
		}},
		{"DupSparseMatrix", 16*2*dupSpCols + 8*(dupSpRows+1), func(t *testing.T, rt *apgas.Runtime, pg apgas.PlaceGroup) dupSubject {
			m, err := MakeDupSparseMatrix(rt, dupSpRows, dupSpCols, pg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.InitColumns(dupSparseColumns); err != nil {
				t.Fatal(err)
			}
			return dupSubject{
				obj: m,
				set: func(ctx *apgas.Ctx, seed float64) {
					for k := range m.Local(ctx).Vals {
						m.Local(ctx).Vals[k] = seed + float64(k)/2
					}
				},
				get: func(ctx *apgas.Ctx) []float64 {
					sp := m.Local(ctx)
					var out []float64
					for _, p := range sp.RowPtr {
						out = append(out, float64(p))
					}
					for _, j := range sp.ColIdx {
						out = append(out, float64(j))
					}
					return append(out, sp.Vals...)
				},
			}
		}},
	}
}

// dupAt runs fn at the place holding group index idx of sub's object.
func dupAt(t *testing.T, rt *apgas.Runtime, sub dupSubject, idx int, fn func(*apgas.Ctx)) {
	t.Helper()
	if err := rt.Finish(func(ctx *apgas.Ctx) { ctx.At(sub.obj.Group()[idx], fn) }); err != nil {
		t.Fatal(err)
	}
}

// dupAll returns every duplicate of sub's object, in group order.
func dupAll(t *testing.T, rt *apgas.Runtime, sub dupSubject) [][]float64 {
	t.Helper()
	out := make([][]float64, sub.obj.Group().Size())
	for idx := range out {
		dupAt(t, rt, sub, idx, func(c *apgas.Ctx) { out[idx] = sub.get(c) })
	}
	return out
}

// checkDupsEqual fails unless every duplicate is bitwise equal to want.
func checkDupsEqual(t *testing.T, rt *apgas.Runtime, sub dupSubject, want []float64) {
	t.Helper()
	for idx, got := range dupAll(t, rt, sub) {
		if !bitsEqualVec(got, want) {
			t.Fatalf("duplicate %d = %v, want %v", idx, got, want)
		}
	}
}

// TestDupCore drives the one duplicated-object core through every Dup
// class: Sync, the one-copy save, Remake retention, full restore, a partial
// restore whose one valid survivor re-broadcasts to exactly the invalid
// indices, and the fall back to a full restore when every survivor has
// diverged from the checkpoint.
func TestDupCore(t *testing.T) {
	for _, class := range dupClasses() {
		t.Run(class.name, func(t *testing.T) {
			rt, reg := newInstrumentedRT(t, 5)
			pg := apgas.PlaceGroup{rt.Place(0), rt.Place(1), rt.Place(2), rt.Place(3)}
			sub := class.build(t, rt, pg)
			counter := func(name string) int64 { return reg.Counter(name).Value() }

			// Sync publishes the root's content to every place.
			dupAt(t, rt, sub, 0, func(c *apgas.Ctx) { sub.set(c, 1.5) })
			sub.obj.MarkDirty()
			if err := sub.obj.Sync(); err != nil {
				t.Fatal(err)
			}
			var want []float64
			dupAt(t, rt, sub, 0, func(c *apgas.Ctx) { want = sub.get(c) })
			checkDupsEqual(t, rt, sub, want)

			// One logical copy is saved.
			s, err := sub.obj.MakeSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Destroy()
			if got := counter("snapshot.saves"); got != 1 {
				t.Fatalf("snapshot.saves = %d, want 1", got)
			}

			// Full restore: every place loads the checkpoint.
			if err := apgas.ForEachPlace(rt, pg, func(ctx *apgas.Ctx, _ int) { sub.set(ctx, -3) }); err != nil {
				t.Fatal(err)
			}
			loads0 := counter("snapshot.loads")
			if err := sub.obj.RestoreSnapshot(s); err != nil {
				t.Fatal(err)
			}
			if got := counter("snapshot.loads") - loads0; got != 4 {
				t.Errorf("RestoreSnapshot loaded %d times, want 4", got)
			}
			checkDupsEqual(t, rt, sub, want)

			// Diverge the duplicates at indices 0 and 1, then lose place 2:
			// Remake keeps the three survivors (one of them still valid) and
			// brings the replacement up empty.
			for _, idx := range []int{0, 1} {
				dupAt(t, rt, sub, idx, func(c *apgas.Ctx) { sub.set(c, 7) })
			}
			if err := rt.Kill(rt.Place(2)); err != nil {
				t.Fatal(err)
			}
			retained0 := counter("dist.remake.segments.retained")
			if err := sub.obj.Remake(apgas.PlaceGroup{rt.Place(0), rt.Place(1), rt.Place(4), rt.Place(3)}); err != nil {
				t.Fatal(err)
			}
			if got := counter("dist.remake.segments.retained") - retained0; got != 3 {
				t.Fatalf("Remake retained %d duplicates, want 3", got)
			}
			var fresh []float64
			dupAt(t, rt, sub, 2, func(c *apgas.Ctx) { fresh = sub.get(c) })
			if bitsEqualVec(fresh, want) {
				t.Fatal("the replacement place's duplicate already holds the checkpoint")
			}

			// Partial restore: index 3 validates and alone supplies the data,
			// relayed to indices 0, 1 and 2 — three payload transfers, no
			// snapshot loads.
			loads0, kept0, bcast0 := counter("snapshot.loads"), counter("dist.restore.partial.kept"), counter("dist.restore.partial.bcast")
			st0 := rt.Stats()
			if err := sub.obj.RestoreSnapshot(s); err != nil {
				t.Fatal(err)
			}
			if got := counter("dist.restore.partial.kept") - kept0; got != 1 {
				t.Errorf("partial.kept = %d, want 1", got)
			}
			if got := counter("dist.restore.partial.bcast") - bcast0; got != 3 {
				t.Errorf("partial.bcast = %d, want 3", got)
			}
			if got := counter("snapshot.loads") - loads0; got != 0 {
				t.Errorf("partial restore loaded %d times, want 0", got)
			}
			if got := rt.Stats().Sub(st0).Bytes; got != int64(3*class.bytes) {
				t.Errorf("partial restore moved %d bytes, want 3 payloads of %d", got, class.bytes)
			}
			checkDupsEqual(t, rt, sub, want)

			// Every survivor diverged: no validation succeeds and the partial
			// restore degrades to loading at every place.
			if err := apgas.ForEachPlace(rt, sub.obj.Group(), func(ctx *apgas.Ctx, _ int) { sub.set(ctx, 9) }); err != nil {
				t.Fatal(err)
			}
			if err := sub.obj.Remake(sub.obj.Group()); err != nil {
				t.Fatal(err)
			}
			loads0, kept0 = counter("snapshot.loads"), counter("dist.restore.partial.kept")
			if err := sub.obj.RestoreSnapshot(s); err != nil {
				t.Fatal(err)
			}
			if got := counter("dist.restore.partial.kept") - kept0; got != 0 {
				t.Errorf("partial.kept moved by %d, want 0 (no survivor validates)", got)
			}
			if got := counter("snapshot.loads") - loads0; got != 4 {
				t.Errorf("fallback restore loaded %d times, want 4", got)
			}
			checkDupsEqual(t, rt, sub, want)
		})
	}
}

// TestDupNetworkAccounting pins what Sync and the partial-restore
// re-broadcast count in apgas.net.* at group sizes 1–9, for every Dup
// class: messages, payload bytes, spawned tasks and ledger events, and
// the forced worker-cache puts. Sync warms every receiving worker's cache
// for DupVector (the vector the multvec kernel reads); the restore
// re-broadcast warms nothing. The message, task and ledger counts are
// those of the per-class broadcasts the shared relay replaced.
func TestDupNetworkAccounting(t *testing.T) {
	syncMsgs := []int64{0, 3, 6, 10, 13, 17, 21, 25, 28}
	syncLedger := []int64{0, 3, 5, 7, 9, 11, 13, 15, 17}
	restMsgs := []int64{0, 6, 12, 19, 25, 32, 39, 46, 52}
	restLedger := []int64{3, 8, 12, 16, 20, 24, 28, 32, 36}
	type cost struct{ msgs, bytes, tasks, ledger, puts int64 }
	for _, class := range dupClasses() {
		for places := 1; places <= 9; places++ {
			t.Run(fmt.Sprintf("%s/places=%d", class.name, places), func(t *testing.T) {
				rt, et := newExecRT(t, places)
				pg := rt.World()
				sub := class.build(t, rt, pg)
				if err := apgas.ForEachPlace(rt, pg, func(ctx *apgas.Ctx, _ int) { sub.set(ctx, 0.5) }); err != nil {
					t.Fatal(err)
				}
				sub.obj.MarkDirty()
				measure := func(op func() error) cost {
					t.Helper()
					puts := func() (n int64) {
						names, _ := et.dispatches()
						for _, name := range names {
							if name == kernel.PutName {
								n++
							}
						}
						return n
					}
					st0, puts0 := rt.Stats(), puts()
					if err := op(); err != nil {
						t.Fatal(err)
					}
					d := rt.Stats().Sub(st0)
					return cost{d.Messages, d.Bytes, d.TasksSpawned, d.LedgerEvents, puts() - puts0}
				}
				p := int64(places)
				payloads := (p - 1) * int64(class.bytes)
				wantSync := cost{syncMsgs[p-1], payloads, p - 1, syncLedger[p-1], 0}
				if class.name == "DupVector" {
					wantSync.puts = p - 1
				}
				if got := measure(sub.obj.Sync); got != wantSync {
					t.Errorf("Sync cost %+v, want %+v", got, wantSync)
				}

				// Diverge every duplicate but the root's and remake onto the
				// same group: the root re-broadcasts to the other p-1.
				s, err := sub.obj.MakeSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer s.Destroy()
				if err := apgas.ForEachPlace(rt, pg, func(ctx *apgas.Ctx, idx int) {
					if idx != 0 {
						sub.set(ctx, math.Pi)
					}
				}); err != nil {
					t.Fatal(err)
				}
				if err := sub.obj.Remake(pg); err != nil {
					t.Fatal(err)
				}
				wantRest := cost{restMsgs[p-1], payloads, 2*p - 1, restLedger[p-1], 0}
				if got := measure(func() error { return sub.obj.RestoreSnapshot(s) }); got != wantRest {
					t.Errorf("partial restore cost %+v, want %+v", got, wantRest)
				}
			})
		}
	}
}
