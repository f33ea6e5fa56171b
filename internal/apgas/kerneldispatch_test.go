package apgas_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/obs"
)

// failKernelRuns counts executions of apgastest.fail, wherever they ran.
var failKernelRuns atomic.Int64

func init() {
	apgas.RegisterKernel("apgastest.sum", func(ex *kernel.Exec, t *kernel.Task) (*kernel.Result, error) {
		var s float64
		for _, v := range t.F64 {
			s += v
		}
		return &kernel.Result{F64: []float64{s}}, nil
	})
	apgas.RegisterKernel("apgastest.read", func(ex *kernel.Exec, t *kernel.Task) (*kernel.Result, error) {
		e, err := ex.Ref(t.Refs[0])
		if err != nil {
			return nil, err
		}
		return &kernel.Result{Payload: append([]byte(nil), e.Bytes()...)}, nil
	})
	// apgastest.obj reports the executing worker store's size (-1
	// in-process, where there is no store), then what its first ref
	// resolves to: the caller's live []float64 in-process, or the decoded
	// bytes in a worker.
	apgas.RegisterKernel("apgastest.obj", func(ex *kernel.Exec, t *kernel.Task) (*kernel.Result, error) {
		res := &kernel.Result{F64: []float64{-1}}
		if ex.Store != nil {
			res.F64[0] = float64(ex.Store.Len())
		}
		if len(t.Refs) == 0 {
			return res, nil
		}
		e, err := ex.Ref(t.Refs[0])
		if err != nil {
			return nil, err
		}
		obj, err := e.Obj(func(data []byte) (any, error) {
			vs := make([]float64, len(data))
			for i, b := range data {
				vs[i] = float64(b)
			}
			return vs, nil
		})
		if err != nil {
			return nil, err
		}
		vs := obj.([]float64)
		vs[0]++ // visible to the caller only if vs is the caller's own slice
		res.F64 = append(res.F64, vs...)
		return res, nil
	})
	apgas.RegisterKernel("apgastest.fail", func(ex *kernel.Exec, t *kernel.Task) (*kernel.Result, error) {
		failKernelRuns.Add(1)
		return nil, errors.New("injected kernel failure")
	})
}

// fakeExecutor is a fakeTransport with a data plane: it executes
// dispatched kernels against real per-place stores, the way a tcp worker
// does, while recording how many blobs each dispatch shipped — the
// observable the mirror's ship-once contract is asserted through.
type fakeExecutor struct {
	fakeTransport
	emu      sync.Mutex
	stores   map[int]*kernel.Store
	shipped  []int // len(t.Puts) per dispatch, in order
	drops    [][]uint64
	failNext error // fail the next Exec with this transport error
	// reportDeath makes the failed Exec also report the place's death
	// through the Handler first, as tcp's connLost does.
	reportDeath bool
}

func (f *fakeExecutor) Exec(t *kernel.Task) (*kernel.Result, error) {
	if t == nil {
		return nil, nil
	}
	f.emu.Lock()
	defer f.emu.Unlock()
	if err := f.failNext; err != nil {
		f.failNext = nil
		if f.reportDeath {
			f.placeDead(int(t.Place), transport.CauseConn)
		}
		return nil, err
	}
	if f.stores == nil {
		f.stores = make(map[int]*kernel.Store)
	}
	place := int(t.Place)
	st := f.stores[place]
	if st == nil {
		st = kernel.NewStore()
		f.stores[place] = st
	}
	f.shipped = append(f.shipped, len(t.Puts))
	f.drops = append(f.drops, t.Drops)
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

func (f *fakeExecutor) shipCounts() []int {
	f.emu.Lock()
	defer f.emu.Unlock()
	return append([]int(nil), f.shipped...)
}

// TestKernelDispatchLocalBackend pins how the local backend executes a
// kernel: no place has a worker body, so every place — not only place
// zero — runs it in-process on the caller's live object, by reference,
// with zero Encode calls; kernel_local counts it, worker_executed stays
// zero.
func TestKernelDispatchLocalBackend(t *testing.T) {
	reg := obs.NewRegistry()
	rt, err := apgas.New(apgas.WithPlaces(3), apgas.WithObs(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()

	err = rt.Finish(func(ctx *apgas.Ctx) {
		ctx.AsyncAt(rt.Place(1), func(c *apgas.Ctx) {
			if c.WorkerBody() {
				t.Error("local backend claims a worker body")
			}
			live := []float64{10, 20}
			encoded := 0
			res, err := c.ExecKernel(&kernel.Task{Name: "apgastest.obj"},
				kernel.Input{Handle: 3, Key: 0, Ver: 1, Obj: live, Encode: func() []byte {
					encoded++
					return []byte{10, 20}
				}})
			if err != nil {
				t.Errorf("ExecKernel: %v", err)
				return
			}
			if encoded != 0 || live[0] != 11 || res.F64[1] != 11 {
				t.Errorf("Encode ran %d times, live[0] = %v, kernel saw %v; want by-reference", encoded, live[0], res.F64[1:])
			}
		})
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got := rt.Stats().WorkerTasks; got != 0 {
		t.Fatalf("WorkerTasks = %d on local backend, want 0", got)
	}
	if got := reg.CounterValue("apgas.tasks.kernel_local"); got != 1 {
		t.Fatalf("kernel_local = %d, want 1", got)
	}
	if got := reg.CounterValue("apgas.tasks.worker_executed"); got != 0 {
		t.Fatalf("worker_executed = %d, want 0", got)
	}
}

// TestKernelInProcessInputWithoutObject: in-process a ref resolves only
// to its input's live object, so an input that names none fails the
// kernel with the missing-entry error instead of being encoded for a
// store that does not exist — at place zero and at any other place of the
// local backend alike.
func TestKernelInProcessInputWithoutObject(t *testing.T) {
	rt, err := apgas.New(apgas.WithPlaces(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()
	read := func(c *apgas.Ctx) {
		encoded := 0
		in := kernel.Input{Handle: 3, Key: 4, Ver: 1, Encode: func() []byte {
			encoded++
			return []byte{10, 20}
		}}
		res, err := c.ExecKernel(&kernel.Task{Name: "apgastest.obj"}, in)
		if err == nil || !strings.Contains(err.Error(), "no entry (handle 3, key 4)") {
			t.Errorf("ExecKernel at %v = %+v, %v; want the missing-entry error", c.Here, res, err)
		}
		if encoded != 0 {
			t.Errorf("Encode ran %d times at %v, want 0", encoded, c.Here)
		}
	}
	err = rt.Finish(func(ctx *apgas.Ctx) {
		read(ctx)
		ctx.At(rt.Place(1), read)
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestKernelDispatchRemoteAndMirror drives the remote leg through a fake
// executor: results come from the worker-side store, worker_executed
// counts them, and the coordinator's shipped-version mirror sends each
// (handle, key, version) across exactly once — re-dispatching with the
// same version ships nothing, bumping the version re-ships.
func TestKernelDispatchRemoteAndMirror(t *testing.T) {
	fe := &fakeExecutor{}
	reg := obs.NewRegistry()
	rt, err := apgas.New(
		apgas.WithPlaces(3),
		apgas.WithResilient(true),
		apgas.WithTransport(fe),
		apgas.WithObs(reg),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()

	read := func(c *apgas.Ctx, ver uint64, payload string) {
		t.Helper()
		res, err := c.ExecKernel(
			&kernel.Task{Name: "apgastest.read"},
			kernel.Input{Handle: 5, Key: 1, Ver: ver, Encode: func() []byte { return []byte(payload) }},
		)
		if err != nil {
			t.Fatalf("ExecKernel(read): %v", err)
		}
		if string(res.Payload) != payload {
			t.Fatalf("read %q, want %q", res.Payload, payload)
		}
	}
	err = rt.Finish(func(ctx *apgas.Ctx) {
		ctx.AsyncAt(rt.Place(1), func(c *apgas.Ctx) {
			if !c.WorkerBody() {
				t.Error("place 1 of an executor-capable backend reports no worker body")
			}
			read(c, 1, "v1") // cold: ships the blob
			read(c, 1, "v1") // warm: mirror hit, ships nothing
			read(c, 2, "v2") // new version: re-ships
		})
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got := fe.shipCounts(); len(got) != 3 || got[0] != 1 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("blobs shipped per dispatch = %v, want [1 0 1]", got)
	}
	if got := rt.Stats().WorkerTasks; got != 3 {
		t.Fatalf("WorkerTasks = %d, want 3", got)
	}
	if got := reg.CounterValue("apgas.tasks.worker_executed"); got != 3 {
		t.Fatalf("worker_executed = %d, want 3", got)
	}
	if got := reg.CounterValue("apgas.tasks.kernel_local"); got != 0 {
		t.Fatalf("kernel_local = %d, want 0", got)
	}
}

// TestKernelDispatchForcedPutsBypassMirror pins the Sync contract: puts
// the caller placed on the task are unconditional installs, shipped on
// every dispatch even when the mirror already holds that exact version —
// content can change under an unchanged version and must still propagate.
func TestKernelDispatchForcedPutsBypassMirror(t *testing.T) {
	fe := &fakeExecutor{}
	rt, err := apgas.New(apgas.WithPlaces(2), apgas.WithTransport(fe))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()

	force := func(c *apgas.Ctx, payload string) {
		t.Helper()
		tk := &kernel.Task{Name: kernel.PutName, Puts: []kernel.Blob{
			{Handle: 9, Key: 0, Ver: 1, Data: []byte(payload)},
		}}
		if _, err := c.ExecKernel(tk); err != nil {
			t.Fatalf("ExecKernel(forced put): %v", err)
		}
	}
	err = rt.Finish(func(ctx *apgas.Ctx) {
		ctx.AsyncAt(rt.Place(1), func(c *apgas.Ctx) {
			force(c, "first")
			force(c, "second") // same version, new content: must still ship
			res, err := c.ExecKernel(
				&kernel.Task{Name: "apgastest.read"},
				kernel.Input{Handle: 9, Key: 0, Ver: 1, Encode: func() []byte { return []byte("stale") }},
			)
			if err != nil {
				t.Errorf("ExecKernel(read): %v", err)
			} else if string(res.Payload) != "second" {
				t.Errorf("read %q after forced re-put, want %q", res.Payload, "second")
			}
		})
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// Dispatches: two forced puts (1 blob each) and a read whose input the
	// forced puts already landed — the mirror recorded them, so 0 blobs.
	if got := fe.shipCounts(); len(got) != 3 || got[0] != 1 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("blobs shipped per dispatch = %v, want [1 1 0]", got)
	}
}

// TestKernelDispatchFailureIsPlaceDeath injects each kind of
// transport-level dispatch failure. One that means the body is gone (no
// body, a broken wire) is the place's death: the finish gets
// DeadPlaceError naming it, the runtime already marks it dead when
// ExecKernel unwinds, the death is counted once in apgas.places.failed
// even when the transport reports it too, and nothing re-runs at the
// coordinator.
func TestKernelDispatchFailureIsPlaceDeath(t *testing.T) {
	for _, tc := range []struct {
		err         error
		reportDeath bool
	}{
		{fmt.Errorf("fake: %w", transport.ErrNoBody), false},
		{fmt.Errorf("fake: %w", transport.ErrNoBody), true},
		{errors.New("fake: broken pipe"), false},
		{errors.New("fake: broken pipe"), true},
	} {
		fe := &fakeExecutor{failNext: tc.err, reportDeath: tc.reportDeath}
		reg := obs.NewRegistry()
		rt, err := apgas.New(apgas.WithPlaces(2), apgas.WithResilient(true), apgas.WithTransport(fe), apgas.WithObs(reg))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		victim := rt.Place(1)
		// The finish may end (the ledger terminates the dead place's task)
		// before the task itself has unwound, so the task reports through
		// a channel.
		deadOnReturn := make(chan bool, 1)
		err = rt.Finish(func(ctx *apgas.Ctx) {
			ctx.AsyncAt(victim, func(c *apgas.Ctx) {
				defer func() { deadOnReturn <- rt.IsDead(victim) }()
				in := kernel.Input{Handle: 3, Ver: 1, Obj: []float64{10, 20}, Encode: func() []byte { return []byte{10, 20} }}
				res, err := c.ExecKernel(&kernel.Task{Name: "apgastest.obj"}, in)
				t.Errorf("%v: ExecKernel returned %+v, %v; want a DeadPlaceError thrown", tc.err, res, err)
			})
		})
		if dead := apgas.DeadPlaces(err); len(dead) != 1 || dead[0] != victim {
			t.Fatalf("%v: Finish = %v, want DeadPlaceError at %v", tc.err, err, victim)
		}
		if !<-deadOnReturn {
			t.Fatalf("%v: %v not yet dead when ExecKernel unwound", tc.err, victim)
		}
		if got := reg.CounterValue("apgas.places.failed"); got != 1 {
			t.Fatalf("%v (reported by the transport too: %v): apgas.places.failed = %d, want 1", tc.err, tc.reportDeath, got)
		}
		if got := reg.CounterValue("apgas.tasks.kernel_local"); got != 0 {
			t.Fatalf("%v: kernel_local = %d, want 0 (no re-run at the coordinator)", tc.err, got)
		}
		if got := rt.Stats().WorkerTasks; got != 0 {
			t.Fatalf("%v: WorkerTasks = %d, want 0", tc.err, got)
		}
		rt.Shutdown()
	}
}

// TestKernelDispatchKernelErrorIsReturned pins the other half of the rule:
// a kernel-level failure (Result.Err) is the caller's error on both legs,
// and the worker leg does not re-execute it in-process — the kernel ran
// exactly once, and kernel_local did not move.
func TestKernelDispatchKernelErrorIsReturned(t *testing.T) {
	fe := &fakeExecutor{}
	reg := obs.NewRegistry()
	rt, err := apgas.New(apgas.WithPlaces(2), apgas.WithTransport(fe), apgas.WithObs(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()

	fail := func(c *apgas.Ctx) {
		t.Helper()
		before := failKernelRuns.Load()
		res, err := c.ExecKernel(&kernel.Task{Name: "apgastest.fail"})
		if err == nil || !strings.Contains(err.Error(), "injected kernel failure") {
			t.Errorf("ExecKernel at %v = %+v, %v; want the kernel's error", c.Here, res, err)
		}
		if ran := failKernelRuns.Load() - before; ran != 1 {
			t.Errorf("failing kernel ran %d times at %v, want 1", ran, c.Here)
		}
	}
	err = rt.Finish(func(ctx *apgas.Ctx) {
		fail(ctx) // in-process leg
		ctx.At(rt.Place(1), fail)
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got := fe.shipCounts(); len(got) != 1 {
		t.Fatalf("dispatches = %v, want exactly the one to place 1", got)
	}
	for _, name := range []string{"apgas.tasks.kernel_local", "apgas.tasks.worker_executed"} {
		if got := reg.CounterValue(name); got != 0 {
			t.Errorf("%s = %d after two failed kernels, want 0", name, got)
		}
	}
}

// TestKernelDispatchPlaceZeroStaysLocal verifies the coordinator's own
// place never dispatches remotely — place zero IS the coordinator.
func TestKernelDispatchPlaceZeroStaysLocal(t *testing.T) {
	fe := &fakeExecutor{}
	rt, err := apgas.New(apgas.WithPlaces(2), apgas.WithTransport(fe))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()

	err = rt.Finish(func(ctx *apgas.Ctx) {
		res, err := ctx.ExecKernel(&kernel.Task{Name: "apgastest.sum", F64: []float64{4}})
		if err != nil || res.F64[0] != 4 {
			t.Errorf("ExecKernel at place 0 = %+v, %v", res, err)
		}
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got := fe.shipCounts(); len(got) != 0 {
		t.Fatalf("place-zero kernel was dispatched remotely: %v", got)
	}
	if got := rt.Stats().WorkerTasks; got != 0 {
		t.Fatalf("WorkerTasks = %d, want 0", got)
	}
}

// TestKernelPlaceZeroByReference pins how the coordinator's own place
// executes a kernel: an input's ref resolves to its live object, by
// reference — Encode never runs, and the kernel sees (and here, mutates)
// the caller's very slice — while a worker place still gets the bytes.
func TestKernelPlaceZeroByReference(t *testing.T) {
	fe := &fakeExecutor{}
	rt, err := apgas.New(apgas.WithPlaces(2), apgas.WithTransport(fe))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()

	run := func(c *apgas.Ctx) (live []float64, encoded int, res *kernel.Result) {
		live = []float64{10, 20}
		in := kernel.Input{Handle: 3, Key: 0, Ver: 1, Obj: live, Encode: func() []byte {
			encoded++
			return []byte{10, 20}
		}}
		res, err := c.ExecKernel(&kernel.Task{Name: "apgastest.obj"}, in)
		if err != nil {
			t.Fatalf("ExecKernel at %v: %v", c.Here, err)
		}
		return live, encoded, res
	}
	err = rt.Finish(func(ctx *apgas.Ctx) {
		live, encoded, res := run(ctx)
		if encoded != 0 || live[0] != 11 || res.F64[1] != 11 {
			t.Errorf("place 0: Encode ran %d times, live[0] = %v, kernel saw %v; want by-reference", encoded, live[0], res.F64[1:])
		}
		// The same version again, with a different object: the kernel reads
		// the input itself, so the swapped object is the one it sees.
		if live, _, res := run(ctx); live[0] != 11 || res.F64[1] != 11 {
			t.Errorf("place 0, second object under the same version: live[0] = %v, kernel saw %v", live[0], res.F64[1:])
		}
		ctx.At(rt.Place(1), func(c *apgas.Ctx) {
			live, encoded, res := run(c)
			if encoded != 1 || live[0] != 10 || res.F64[1] != 11 {
				t.Errorf("place 1: Encode ran %d times, live[0] = %v, kernel saw %v; want shipped bytes", encoded, live[0], res.F64[1:])
			}
		})
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestHandleDestroyDropsKernelData: destroying a PlaceLocalHandle removes
// what the data plane cached under it — from the ship-once mirror at once
// (a re-dispatch re-ships), and from each worker body that holds some via
// a Drops list on the next task to that place, and only to such places.
// Place zero runs in-process and keeps no store.
func TestHandleDestroyDropsKernelData(t *testing.T) {
	fe := &fakeExecutor{}
	rt, err := apgas.New(apgas.WithPlaces(3), apgas.WithResilient(true), apgas.WithTransport(fe))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()
	storeLen := func(c *apgas.Ctx) float64 {
		res, err := c.ExecKernel(&kernel.Task{Name: "apgastest.obj"})
		if err != nil {
			t.Fatalf("ExecKernel at %v: %v", c.Here, err)
		}
		return res.F64[0]
	}
	for gen := 0; gen < 20; gen++ {
		h, err := apgas.NewPlaceLocalHandle(rt, rt.World(), func(*apgas.Ctx, int) int { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		in := kernel.Input{Handle: h.Handle(), Ver: 1, Obj: []float64{1}, Encode: func() []byte { return []byte{1} }}
		err = rt.Finish(func(ctx *apgas.Ctx) {
			for _, p := range rt.World()[:2] { // place 2 never sees the handle
				ctx.At(p, func(c *apgas.Ctx) {
					if _, err := c.ExecKernel(&kernel.Task{Name: "apgastest.obj"}, in); err != nil {
						t.Errorf("ExecKernel at %v: %v", c.Here, err)
					}
				})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		h.Destroy(rt.World())
	}
	err = rt.Finish(func(ctx *apgas.Ctx) {
		for _, p := range rt.World()[1:] {
			ctx.At(p, func(c *apgas.Ctx) {
				if n := storeLen(c); n != 0 {
					t.Errorf("store of %v holds %v entries after every handle was destroyed", c.Here, n)
				}
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	fe.emu.Lock()
	defer fe.emu.Unlock()
	var dropped int
	for _, d := range fe.drops {
		dropped += len(d)
	}
	if dropped != 20 {
		t.Fatalf("workers were told to drop %d handles, want 20 (one per generation, at place 1 only)", dropped)
	}
}
