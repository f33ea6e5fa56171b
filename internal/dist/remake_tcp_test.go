package dist

import (
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport/tcp"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/snapshot"
)

// TestMain lets the tcp transport re-exec this test binary as its worker
// processes: a worker serves its place inside MaybeWorker and never
// reaches m.Run.
func TestMain(m *testing.M) {
	tcp.MaybeWorker()
	os.Exit(m.Run())
}

// recordingTCP is the tcp backend with every dispatch recorded: each
// put by place — what each worker was sent, as (handle, key, version) —
// and each kernel by name.
type recordingTCP struct {
	*tcp.Transport

	mu    sync.Mutex
	puts  map[int][]kernel.Ref
	names map[string]int
}

func newRecordingTCP() *recordingTCP {
	return &recordingTCP{
		Transport: tcp.New(tcp.WithHeartbeat(25*time.Millisecond, 2*time.Second)),
		puts:      make(map[int][]kernel.Ref),
		names:     make(map[string]int),
	}
}

func (r *recordingTCP) Exec(t *kernel.Task) (*kernel.Result, error) {
	if t != nil {
		r.mu.Lock()
		r.names[t.Name]++
		for _, b := range t.Puts {
			r.puts[int(t.Place)] = append(r.puts[int(t.Place)], kernel.Ref{Handle: b.Handle, Key: b.Key, Ver: b.Ver})
		}
		r.mu.Unlock()
	}
	return r.Transport.Exec(t)
}

// remakeFixture runs one MultVec program — a dense matrix with a
// duplicated x and a distributed y — through kills, Remakes and partial
// restores, on the local backend or on tcp with recorded dispatches.
type remakeFixture struct {
	t   *testing.T
	rt  *apgas.Runtime
	reg *obs.Registry
	rec *recordingTCP // nil on the local backend
	m   *DistBlockMatrix
	x   *DupVector
	y   *DistVector
}

func newRemakeFixture(t *testing.T, overTCP bool, places, rowBlocks int) *remakeFixture {
	t.Helper()
	f := &remakeFixture{t: t, reg: obs.NewRegistry()}
	opts := []apgas.Option{apgas.WithPlaces(places), apgas.WithResilient(true), apgas.WithObs(f.reg)}
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
	f.m = makeDenseDBM(t, rt, 24, 5, rowBlocks, 1, places, 1, rt.World())
	if f.x, err = MakeDupVector(rt, 5, rt.World()); err != nil {
		t.Fatal(err)
	}
	if f.y, err = MakeDistVector(rt, 24, rt.World()); err != nil {
		t.Fatal(err)
	}
	return f
}

// multVec forgets the recorded dispatches, runs y = m·x and returns y.
func (f *remakeFixture) multVec() la.Vector {
	f.t.Helper()
	if f.rec != nil {
		f.rec.mu.Lock()
		clear(f.rec.puts)
		f.rec.mu.Unlock()
	}
	if err := f.x.Init(func(i int) float64 { return float64(i)*0.625 - 1 }); err != nil {
		f.t.Fatal(err)
	}
	if err := f.m.MultVec(f.x, f.y); err != nil {
		f.t.Fatal(err)
	}
	y, err := f.y.ToVector()
	if err != nil {
		f.t.Fatal(err)
	}
	return y
}

// blockPuts returns the matrix blocks the last multVec sent place p's
// worker (nil on the local backend, which sends nothing).
func (f *remakeFixture) blockPuts(p int) []int64 {
	if f.rec == nil {
		return nil
	}
	f.rec.mu.Lock()
	defer f.rec.mu.Unlock()
	var ids []int64
	for _, r := range f.rec.puts[p] {
		if r.Handle == f.m.plh.Handle() {
			ids = append(ids, r.Key)
		}
	}
	slices.Sort(ids)
	return ids
}

func (f *remakeFixture) snapshot() *snapshot.Snapshot {
	f.t.Helper()
	s, err := f.m.MakeSnapshot()
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(s.Destroy)
	return s
}

// remake moves every object onto pg, keeping the matrix's grid, and
// restores the matrix from s, keeping what validates.
func (f *remakeFixture) remake(pg apgas.PlaceGroup, s *snapshot.Snapshot) {
	f.t.Helper()
	if err := f.m.Remake(pg, true); err != nil {
		f.t.Fatal(err)
	}
	if err := f.m.RestoreSnapshot(s); err != nil {
		f.t.Fatal(err)
	}
	if err := f.x.Remake(pg); err != nil {
		f.t.Fatal(err)
	}
	if err := f.y.Remake(pg); err != nil {
		f.t.Fatal(err)
	}
}

func (f *remakeFixture) kill(id int) {
	f.t.Helper()
	if err := f.rt.Kill(f.rt.Place(id)); err != nil {
		f.t.Fatal(err)
	}
}

func (f *remakeFixture) addPlace() apgas.Place {
	f.t.Helper()
	added, err := f.rt.AddPlaces(1)
	if err != nil {
		f.t.Fatal(err)
	}
	return added[0]
}

// corrupt flips block id's first value at place p without touching its
// version, as a memory fault would.
func (f *remakeFixture) corrupt(p apgas.Place, id int) {
	f.t.Helper()
	err := f.rt.Finish(func(ctx *apgas.Ctx) {
		ctx.AsyncAt(p, func(c *apgas.Ctx) {
			f.m.LocalBlocks(c).Find(id).Dense.Data[0] += 1
		})
	})
	if err != nil {
		f.t.Fatal(err)
	}
}

// TestRemakeKeepsSurvivorResidentBlocks: across a kill, a keep-grid
// Remake and a partial restore, a surviving place's worker keeps the
// blocks it already holds — the first MultVec after the restore sends it
// none of them — while every block that is new to a place, or whose
// content the restore rewrote, is sent again. Each row runs its program on
// tcp and on the local backend, and every MultVec must agree bit for bit:
// a worker serving a stale block would show up as a differing partial.
func TestRemakeKeepsSurvivorResidentBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	// Each row returns its MultVec results; on tcp it also asserts which
	// blocks each worker was sent.
	rows := []struct {
		name   string
		blocks int
		run    func(f *remakeFixture) []la.Vector
	}{
		{"replace", 3, func(f *remakeFixture) []la.Vector {
			// 3 places, one block each: place 2 dies and place 3 takes
			// its slot. Place 1 keeps block 1; place 3 needs block 2.
			out := []la.Vector{f.multVec()}
			s := f.snapshot()
			f.kill(2)
			f.remake(apgas.PlaceGroup{f.rt.Place(0), f.rt.Place(1), f.addPlace()}, s)
			out = append(out, f.multVec())
			f.wantPuts(1, nil)
			f.wantPuts(3, []int64{2})
			return out
		}},
		{"shrink: a block leaves a place and returns", 6, func(f *remakeFixture) []la.Vector {
			// 6 blocks over 3 places: place 1 holds {2, 3}. Shrinking to
			// [0 1] deals them round-robin, so place 1 keeps 3, loses 2
			// and gains 1 and 5.
			out := []la.Vector{f.multVec()}
			s := f.snapshot()
			f.kill(2)
			f.remake(apgas.PlaceGroup{f.rt.Place(0), f.rt.Place(1)}, s)
			out = append(out, f.multVec())
			f.wantPuts(1, []int64{1, 5})
			// New content everywhere, shipped once, then checkpointed.
			if err := f.m.Scale(1.5); err != nil {
				f.t.Fatal(err)
			}
			out = append(out, f.multVec())
			f.wantPuts(1, []int64{1, 3, 5})
			s = f.snapshot()
			// Growing to [0 3 1] deals place 1 blocks {2, 5}: 5 stays,
			// 2 comes back — with the scaled content, which its worker
			// must be sent rather than serve the copy it dropped.
			f.remake(apgas.PlaceGroup{f.rt.Place(0), f.addPlace(), f.rt.Place(1)}, s)
			out = append(out, f.multVec())
			f.wantPuts(1, []int64{2})
			return out
		}},
		{"a retained block fails its digest", 3, func(f *remakeFixture) []la.Vector {
			// As "replace", but place 1's block is corrupted under an
			// unchanged version before the restore: the restore reloads
			// it, which moves its version, so it is sent again.
			out := []la.Vector{f.multVec()}
			s := f.snapshot()
			f.kill(2)
			pg := apgas.PlaceGroup{f.rt.Place(0), f.rt.Place(1), f.addPlace()}
			f.corrupt(f.rt.Place(1), 1)
			f.remake(pg, s)
			out = append(out, f.multVec())
			f.wantPuts(1, []int64{1})
			f.wantPuts(3, []int64{2})
			return out
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			local := newRemakeFixture(t, false, 3, row.blocks)
			want := row.run(local)
			over := newRemakeFixture(t, true, 3, row.blocks)
			got := row.run(over)
			for i := range want {
				if !bitsEqualVec(got[i], want[i]) {
					t.Fatalf("MultVec %d: tcp %v, local %v", i, got[i], want[i])
				}
			}
			if n := local.reg.CounterValue("apgas.kernel.rekeyed"); n != 0 {
				t.Errorf("local backend re-keyed %d entries; it has no worker bodies", n)
			}
			if n := over.reg.CounterValue("apgas.kernel.rekeyed"); n == 0 {
				t.Error("tcp run re-keyed nothing")
			}
			if n := over.reg.CounterValue("apgas.places.failed"); n != 0 {
				t.Errorf("%d places died under the run's dispatches", n)
			}
		})
	}
}

// wantPuts asserts which matrix blocks the last multVec sent place p's
// worker (no-op on the local backend).
func (f *remakeFixture) wantPuts(p int, want []int64) {
	f.t.Helper()
	if f.rec == nil {
		return
	}
	if got := f.blockPuts(p); !slices.Equal(got, want) {
		f.t.Errorf("place %d was sent blocks %v, want %v", p, got, want)
	}
}
