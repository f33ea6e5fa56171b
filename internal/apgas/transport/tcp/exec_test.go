package tcp_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/apgas/transport/tcp"
)

// The test kernels are registered at package init, which runs in the
// coordinator AND in every re-exec'd worker copy of this test binary
// before MaybeWorker takes over — the same property production kernels
// get from their package init.
func init() {
	apgas.RegisterKernel("tcptest.sum", func(ex *kernel.Exec, t *kernel.Task) (*kernel.Result, error) {
		var s float64
		for _, v := range t.F64 {
			s += v
		}
		for _, v := range t.I64 {
			s += float64(v)
		}
		return &kernel.Result{F64: []float64{s}}, nil
	})
	apgas.RegisterKernel("tcptest.echo", func(ex *kernel.Exec, t *kernel.Task) (*kernel.Result, error) {
		e, err := ex.Ref(t.Refs[0])
		if err != nil {
			return nil, err
		}
		return &kernel.Result{Payload: e.Bytes()}, nil
	})
	apgas.RegisterKernel("tcptest.storelen", func(ex *kernel.Exec, t *kernel.Task) (*kernel.Result, error) {
		return &kernel.Result{F64: []float64{float64(ex.Store.Len())}}, nil
	})
}

// TestExecProbe pins the capability handshake: a started tcp transport
// answers the nil probe with (nil, nil) — it has a data plane.
func TestExecProbe(t *testing.T) {
	tr := tcp.New(fastHeartbeat())
	if err := tr.Start(2, transport.Handler{}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()
	res, err := tr.Exec(nil)
	if res != nil || err != nil {
		t.Fatalf("Exec(nil) = %v, %v; want nil, nil", res, err)
	}
}

// TestExecRunsInWorker dispatches kernels to real worker processes: a
// pure computation, then a put + a later task referencing the put —
// proving the worker's store retains entries across tasks on one
// connection.
func TestExecRunsInWorker(t *testing.T) {
	tr := tcp.New(fastHeartbeat())
	if err := tr.Start(3, transport.Handler{}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()

	res, err := tr.Exec(&kernel.Task{
		Name: "tcptest.sum", Place: 1,
		F64: []float64{0.5, 1.5}, I64: []int64{3},
	})
	if err != nil {
		t.Fatalf("Exec(sum): %v", err)
	}
	if res.Err != "" || len(res.F64) != 1 || res.F64[0] != 5 {
		t.Fatalf("Exec(sum) = %+v, want F64=[5]", res)
	}

	// Install a blob at place 2 via the built-in put kernel...
	res, err = tr.Exec(&kernel.Task{
		Name: kernel.PutName, Place: 2,
		Puts: []kernel.Blob{{Handle: 42, Key: 7, Ver: 1, Data: []byte("cached bytes")}},
	})
	if err != nil || res.Err != "" {
		t.Fatalf("Exec(put) = %+v, %v", res, err)
	}
	// ...and read it back from a later task shipping no bytes at all.
	res, err = tr.Exec(&kernel.Task{
		Name: "tcptest.echo", Place: 2,
		Refs: []kernel.Ref{{Handle: 42, Key: 7, Ver: 1}},
	})
	if err != nil || res.Err != "" {
		t.Fatalf("Exec(echo) = %+v, %v", res, err)
	}
	if string(res.Payload) != "cached bytes" {
		t.Fatalf("echo payload %q, want %q", res.Payload, "cached bytes")
	}

	// Stores are per-place: place 1 never saw the blob.
	res, err = tr.Exec(&kernel.Task{
		Name: "tcptest.echo", Place: 1,
		Refs: []kernel.Ref{{Handle: 42, Key: 7, Ver: 1}},
	})
	if err != nil {
		t.Fatalf("Exec(echo at 1): %v", err)
	}
	if res.Err == "" {
		t.Fatal("echo at place 1 found a blob only place 2 holds")
	}
}

// TestExecErrors pins the failure taxonomy: unknown kernels and kernel
// panics come back as Result.Err (the dispatch itself succeeded); a dead
// place fails the dispatch with a transport error.
func TestExecErrors(t *testing.T) {
	tr := tcp.New(fastHeartbeat())
	if err := tr.Start(3, transport.Handler{}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()

	res, err := tr.Exec(&kernel.Task{Name: "tcptest.unregistered", Place: 1})
	if err != nil {
		t.Fatalf("Exec(unregistered): transport error %v, want Result.Err", err)
	}
	if res.Err == "" || !strings.Contains(res.Err, "unregistered") {
		t.Fatalf("Exec(unregistered) Result.Err = %q, want mention of the kernel", res.Err)
	}

	if err := tr.Kill(2); err != nil {
		t.Fatalf("Kill(2): %v", err)
	}
	if _, err := tr.Exec(&kernel.Task{Name: "tcptest.sum", Place: 2}); err == nil {
		t.Fatal("Exec at killed place succeeded; want error")
	}
}

// TestExecDuringRealDeath dispatches a stream of kernels while the worker
// process is SIGKILLed under it: every Exec must return — a result or an
// error, never a hang — and once the death is reported, fail fast.
func TestExecDuringRealDeath(t *testing.T) {
	tr := tcp.New(fastHeartbeat())
	deaths := make(chan int, 4)
	if err := tr.Start(2, transport.Handler{
		PlaceDead: func(p int, c transport.DeathCause) { deaths <- p },
	}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			_, err := tr.Exec(&kernel.Task{Name: "tcptest.sum", Place: 1, I64: []int64{int64(i)}})
			if err != nil {
				return // place died; every later Exec fails too
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := tr.KillWorkerProcess(1); err != nil {
		t.Fatalf("KillWorkerProcess: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Exec stream hung across a real worker death")
	}
	select {
	case p := <-deaths:
		if p != 1 {
			t.Fatalf("death reported for place %d, want 1", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker death never reported")
	}
}

// TestSendAndExecRaceGrow grows the place set while other goroutines
// keep the existing place busy, then hits the new places from many
// goroutines the moment Grow returns: Grow waits for the handshakes, so
// every first Send and first Exec must succeed — no retry, no fallback
// window — with no spurious death reports.
func TestSendAndExecRaceGrow(t *testing.T) {
	tr := tcp.New(fastHeartbeat())
	deaths := make(chan int, 8)
	if err := tr.Start(2, transport.Handler{
		PlaceDead: func(p int, c transport.DeathCause) { deaths <- p },
	}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()

	stop := make(chan struct{})
	var busy sync.WaitGroup
	for g := 0; g < 2; g++ {
		busy.Add(1)
		go func() {
			defer busy.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := tr.Exec(&kernel.Task{Name: "tcptest.sum", Place: 1, I64: []int64{1}}); err != nil {
					t.Errorf("Exec at place 1 during Grow: %v", err)
					return
				}
			}
		}()
	}
	if err := tr.Grow(2); err != nil {
		t.Fatalf("Grow(2): %v", err)
	}
	var wg sync.WaitGroup
	for _, place := range []int{2, 3} {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(place int) {
				defer wg.Done()
				if _, err := tr.Send(0, place, transport.ClassTask, 8, nil); err != nil {
					t.Errorf("first Send to grown place %d: %v", place, err)
				}
				res, err := tr.Exec(&kernel.Task{Name: "tcptest.sum", Place: int32(place), I64: []int64{int64(place)}})
				if err != nil || res.Err != "" || len(res.F64) != 1 || res.F64[0] != float64(place) {
					t.Errorf("first Exec at grown place %d = %+v, %v", place, res, err)
				}
			}(place)
		}
	}
	wg.Wait()
	close(stop)
	busy.Wait()
	select {
	case p := <-deaths:
		t.Fatalf("spurious death report for place %d during grow", p)
	default:
	}
}

// TestExecPutSteadyStateAllocs pins the zero-copy blob path on the
// coordinator: shipping a 1 MB blob to a worker allocates a handful of
// small objects — the pending entry, the result — and nothing that grows
// with the blob. (The process-wide counters also see the heartbeat
// reader; it allocates per frame, not per byte.)
func TestExecPutSteadyStateAllocs(t *testing.T) {
	tr := tcp.New(fastHeartbeat())
	if err := tr.Start(2, transport.Handler{}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()
	data := make([]byte, 1<<20)
	task := &kernel.Task{Name: kernel.PutName, Place: 1, Puts: []kernel.Blob{{Handle: 1, Data: data}}}
	put := func() {
		task.Puts[0].Ver++
		res, err := tr.Exec(task)
		if err != nil || res.Err != "" {
			t.Fatalf("Exec(put) = %+v, %v", res, err)
		}
		res.Release()
	}
	put() // warm the connection's scratch buffers
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, put)
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	if allocs > 16 {
		t.Errorf("a 1 MB put costs %.0f allocations on the coordinator, want O(1) (<= 16)", allocs)
	}
	if perRun > 1024 {
		t.Errorf("a 1 MB put allocates %.0f bytes on the coordinator, want < 1 KB", perRun)
	}
}

// TestWorkersAndStoresDoNotLeak runs six kill/replace cycles and fifty
// checkpoint-shaped handle lifetimes (ship a blob to every worker under a
// fresh handle, destroy the handle) over real worker processes, and checks
// that nothing accumulates: the transport remembers exactly the live
// places and keeps exactly one standby (none after Shutdown), every
// worker's store is back to the one long-lived entry once
// the drops have ridden a task, and the coordinator's goroutines are back
// at the baseline.
func TestWorkersAndStoresDoNotLeak(t *testing.T) {
	tr := tcp.New(fastHeartbeat())
	rt, err := apgas.New(apgas.WithPlaces(3), apgas.WithResilient(true), apgas.WithTransport(tr))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()
	live := func() apgas.PlaceGroup { return rt.Live(rt.World()) }
	// at runs fn in a task at every live non-zero place.
	at := func(fn func(c *apgas.Ctx)) {
		t.Helper()
		err := rt.Finish(func(ctx *apgas.Ctx) {
			for _, p := range live()[1:] {
				ctx.AsyncAt(p, fn)
			}
		})
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
	}
	put := func(c *apgas.Ctx, handle uint64, size int) {
		task := &kernel.Task{Name: kernel.PutName, Puts: []kernel.Blob{{Handle: handle, Ver: 1, Data: make([]byte, size)}}}
		if _, err := c.ExecKernel(task); err != nil {
			t.Errorf("put at %v: %v", c.Here, err)
		}
	}
	const resident = 1 << 50 // a handle that lives for the whole run
	at(func(c *apgas.Ctx) { put(c, resident, 8) })
	// The baseline counts a joined standby's reader and reaper.
	if _, _, err := tr.AwaitStandby(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	for cycle := 0; cycle < 6; cycle++ {
		victim := live()[1]
		if cycle%2 == 0 {
			err = rt.Kill(victim)
		} else if err = tr.KillWorkerProcess(victim.ID); err == nil {
			for deadline := time.Now().Add(5 * time.Second); !rt.IsDead(victim); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("cycle %d: death of %v never detected", cycle, victim)
				}
			}
		}
		if err != nil {
			t.Fatalf("cycle %d: kill %v: %v", cycle, victim, err)
		}
		added, err := rt.AddPlaces(1)
		if err != nil {
			t.Fatalf("cycle %d: AddPlaces: %v", cycle, err)
		}
		if err := rt.Finish(func(ctx *apgas.Ctx) {
			ctx.AsyncAt(added[0], func(c *apgas.Ctx) { put(c, resident, 8) })
		}); err != nil {
			t.Fatalf("cycle %d: first task at %v: %v", cycle, added[0], err)
		}
		if got, want := tr.WorkerRecords(), len(live())-1; got != want {
			t.Fatalf("cycle %d: transport remembers %d workers, %d places are live", cycle, got, want)
		}
		if got := tr.Standbys(); got != 1 {
			t.Fatalf("cycle %d: transport keeps %d standbys, want exactly 1", cycle, got)
		}
	}

	for ckpt := 0; ckpt < 50; ckpt++ {
		h, err := apgas.NewPlaceLocalHandle(rt, live(), func(*apgas.Ctx, int) int { return 0 })
		if err != nil {
			t.Fatalf("checkpoint %d: %v", ckpt, err)
		}
		at(func(c *apgas.Ctx) { put(c, h.Handle(), 64<<10) })
		h.Destroy(live())
	}
	at(func(c *apgas.Ctx) {
		res, err := c.ExecKernel(&kernel.Task{Name: "tcptest.storelen"})
		if err != nil || len(res.F64) != 1 {
			t.Errorf("storelen at %v = %+v, %v", c.Here, res, err)
		} else if res.F64[0] != 1 {
			t.Errorf("worker store at %v holds %v entries after every handle was destroyed, want the 1 resident", c.Here, res.F64[0])
		}
	})
	if st := rt.Stats(); st.WorkerTasks == 0 {
		t.Fatal("no kernel ran in a worker process")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the kill/replace cycles", runtime.NumGoroutine(), baseline)
		}
	}
	rt.Shutdown()
	if got := tr.Standbys(); got != 0 {
		t.Fatalf("transport keeps %d standbys after Shutdown, want 0", got)
	}
}
