package tcp_test

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/apgas/transport/tcp"
	"github.com/rgml/rgml/internal/obs"
)

// TestMain routes self-spawned invocations of this test binary into the
// worker protocol: the coordinator under test re-executes os.Executable()
// — which is the test binary — with RGML_TCP_WORKER set, and MaybeWorker
// turns that copy into a place body instead of a second test run.
func TestMain(m *testing.M) {
	tcp.MaybeWorker()
	os.Exit(m.Run())
}

// fastHeartbeat keeps multi-process tests snappy without flaking: the
// timeout is 10x the interval, far above scheduler jitter.
func fastHeartbeat() tcp.Option {
	// A short interval keeps real-death detection snappy (SIGKILL is
	// usually reported by connection reset anyway), while the generous
	// timeout absorbs scheduler stalls under -race so a slow beat never
	// becomes a spurious death.
	return tcp.WithHeartbeat(10*time.Millisecond, 2*time.Second)
}

func TestStartSendClose(t *testing.T) {
	tr := tcp.New(fastHeartbeat())
	deaths := make(chan int, 8)
	err := tr.Start(4, transport.Handler{
		PlaceDead: func(p int, c transport.DeathCause) { deaths <- p },
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()

	if tr.Name() != "tcp" {
		t.Fatalf("Name() = %q", tr.Name())
	}
	// Declared-size traffic to every worker, and the return direction.
	for p := 1; p < 4; p++ {
		if _, err := tr.Send(0, p, transport.ClassTask, 0, nil); err != nil {
			t.Fatalf("Send(0->%d): %v", p, err)
		}
		if _, err := tr.Send(p, 0, transport.ClassControl, 64, nil); err != nil {
			t.Fatalf("Send(%d->0): %v", p, err)
		}
	}
	// A worker-to-worker hop checks the receiving place's body.
	if _, err := tr.Send(1, 2, transport.ClassSnapshot, 5, nil); err != nil {
		t.Fatalf("Send(1->2): %v", err)
	}
	// Send carries no bytes: a payload is refused, not carried.
	if _, err := tr.Send(1, 2, transport.ClassSnapshot, 5, []byte("hello")); err == nil {
		t.Fatal("Send with a payload succeeded; want an error")
	}
	// Intra-place is free.
	if d, err := tr.Send(2, 2, transport.ClassData, 1<<20, nil); err != nil || d != 0 {
		t.Fatalf("Send(2->2) = %v, %v; want 0, nil", d, err)
	}
	select {
	case p := <-deaths:
		t.Fatalf("unexpected death report for place %d", p)
	default:
	}
}

// TestSendWritesNoFrame pins that a runtime hop puts nothing on the
// wire: thousands of Sends in both directions leave transport.tcp.frames
// where the workers' heartbeats alone move it.
func TestSendWritesNoFrame(t *testing.T) {
	reg := obs.NewRegistry()
	tr := tcp.New(fastHeartbeat(), tcp.WithObs(reg))
	if err := tr.Start(3, transport.Handler{}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()
	nonBeat := func() int64 {
		n := reg.CounterValue("transport.tcp.heartbeats")
		return reg.CounterValue("transport.tcp.frames") - n
	}
	before := nonBeat()
	for i := 0; i < 1000; i++ {
		for p := 1; p < 3; p++ {
			if _, err := tr.Send(0, p, transport.ClassData, 1<<20, nil); err != nil {
				t.Fatalf("Send(0->%d): %v", p, err)
			}
			if _, err := tr.Send(p, 0, transport.ClassControl, 64, nil); err != nil {
				t.Fatalf("Send(%d->0): %v", p, err)
			}
		}
	}
	// Each of the two read loops may have counted a heartbeat's frame but
	// not yet the heartbeat at either reading.
	if d := nonBeat() - before; d > 2 || d < -2 {
		t.Fatalf("4000 Sends moved the non-heartbeat frame count by %d", d)
	}
}

func TestAdministrativeKillSuppressed(t *testing.T) {
	tr := tcp.New(fastHeartbeat())
	deaths := make(chan int, 8)
	if err := tr.Start(3, transport.Handler{
		PlaceDead: func(p int, c transport.DeathCause) { deaths <- p },
	}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()

	if err := tr.Kill(2); err != nil {
		t.Fatalf("Kill(2): %v", err)
	}
	// An administrative kill must never produce a detector report — the
	// runtime already knows. Wait out several timeout windows.
	select {
	case p := <-deaths:
		t.Fatalf("administrative kill of place 2 leaked a death report for place %d", p)
	case <-time.After(400 * time.Millisecond):
	}
	if _, err := tr.Send(0, 2, transport.ClassTask, 0, nil); err == nil {
		t.Fatal("Send to killed place succeeded; want error")
	}
	// The surviving worker is untouched.
	if _, err := tr.Send(0, 1, transport.ClassTask, 0, nil); err != nil {
		t.Fatalf("Send to surviving place 1: %v", err)
	}
}

func TestRealProcessKillDetected(t *testing.T) {
	tr := tcp.New(fastHeartbeat())
	type death struct {
		place int
		cause transport.DeathCause
	}
	deaths := make(chan death, 8)
	if err := tr.Start(3, transport.Handler{
		PlaceDead: func(p int, c transport.DeathCause) { deaths <- death{p, c} },
	}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()

	if err := tr.KillWorkerProcess(1); err != nil {
		t.Fatalf("KillWorkerProcess(1): %v", err)
	}
	select {
	case d := <-deaths:
		if d.place != 1 {
			t.Fatalf("death reported for place %d, want 1", d.place)
		}
		if d.cause != transport.CauseConn && d.cause != transport.CauseTimeout {
			t.Fatalf("death cause = %v, want conn or timeout", d.cause)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("real process kill never detected")
	}
	// Exactly one report.
	select {
	case d := <-deaths:
		t.Fatalf("duplicate death report: %+v", d)
	case <-time.After(300 * time.Millisecond):
	}
}

func TestGrow(t *testing.T) {
	tr := tcp.New(fastHeartbeat())
	if err := tr.Start(2, transport.Handler{}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()
	if err := tr.Grow(2); err != nil {
		t.Fatalf("Grow(2): %v", err)
	}
	// Grow returns after the new places' handshakes: no polling.
	for p := 2; p < 4; p++ {
		if _, err := tr.Send(0, p, transport.ClassTask, 0, nil); err != nil {
			t.Fatalf("grown place %d not sendable when Grow returned: %v", p, err)
		}
	}
}

// TestGrowAdoptsStandby pins the warm body: Start leaves one standby
// worker, started and handshaken, holding the next place id, and Grow(1)
// makes it that place without starting a process. Only then is the next
// standby spawned, for the id after.
func TestGrowAdoptsStandby(t *testing.T) {
	reg := obs.NewRegistry()
	tr := tcp.New(fastHeartbeat(), tcp.WithObs(reg))
	if err := tr.Start(2, transport.Handler{}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()
	if place, _, err := tr.AwaitStandby(10 * time.Second); err != nil || place != 2 {
		t.Fatalf("standby after Start: place %d, %v; want place 2", place, err)
	}
	if _, err := tr.Send(0, 2, transport.ClassTask, 0, nil); err == nil {
		t.Fatal("Send to the standby's place id succeeded before Grow made it a place")
	}
	if err := tr.Grow(1); err != nil {
		t.Fatalf("Grow(1): %v", err)
	}
	if got := reg.CounterValue("transport.tcp.standby.adopted"); got != 1 {
		t.Fatalf("standby.adopted = %d after Grow(1), want 1", got)
	}
	res, err := tr.Exec(&kernel.Task{Name: "tcptest.sum", Place: 2, I64: []int64{2}})
	if err != nil || res.Err != "" || len(res.F64) != 1 || res.F64[0] != 2 {
		t.Fatalf("first Exec at the adopted place 2 = %+v, %v", res, err)
	}
	if place, _, err := tr.AwaitStandby(10 * time.Second); err != nil || place != 3 {
		t.Fatalf("standby after Grow(1): place %d, %v; want place 3", place, err)
	}
	if got := reg.CounterValue("transport.tcp.standby.spawned"); got != 2 {
		t.Fatalf("standby.spawned = %d, want 2 (one after Start, one after Grow)", got)
	}
	if got := tr.WorkerRecords(); got != 2 {
		t.Fatalf("%d worker records, want 2: the standby is not a place", got)
	}
}

// TestGrowTwoAdoptsOneSpawnsOne: Grow(2) adopts the standby as its first
// new place and spawns a body for the second.
func TestGrowTwoAdoptsOneSpawnsOne(t *testing.T) {
	reg := obs.NewRegistry()
	tr := tcp.New(fastHeartbeat(), tcp.WithObs(reg))
	if err := tr.Start(2, transport.Handler{}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close()
	if _, _, err := tr.AwaitStandby(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tr.Grow(2); err != nil {
		t.Fatalf("Grow(2): %v", err)
	}
	if got := reg.CounterValue("transport.tcp.standby.adopted"); got != 1 {
		t.Fatalf("standby.adopted = %d after Grow(2), want 1", got)
	}
	for place := 2; place < 4; place++ {
		res, err := tr.Exec(&kernel.Task{Name: "tcptest.sum", Place: int32(place), I64: []int64{int64(place)}})
		if err != nil || res.Err != "" || len(res.F64) != 1 || res.F64[0] != float64(place) {
			t.Fatalf("first Exec at grown place %d = %+v, %v", place, res, err)
		}
	}
	if place, _, err := tr.AwaitStandby(10 * time.Second); err != nil || place != 4 {
		t.Fatalf("standby after Grow(2): place %d, %v; want place 4", place, err)
	}
	if got := tr.WorkerRecords(); got != 3 {
		t.Fatalf("%d worker records, want 3", got)
	}
}

// TestStandbyDeathIsNotAPlaceDeath SIGKILLs the standby before any Grow:
// it was never a place, so the runtime sees no failure and the detector
// reports no death. The next AddPlaces spawns a fresh body for the place
// and a new standby after it.
func TestStandbyDeathIsNotAPlaceDeath(t *testing.T) {
	reg := obs.NewRegistry()
	tr := tcp.New(fastHeartbeat(), tcp.WithObs(reg))
	rt, err := apgas.New(apgas.WithPlaces(2), apgas.WithResilient(true), apgas.WithTransport(tr), apgas.WithObs(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()
	_, kill, err := tr.AwaitStandby(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := kill(); err != nil {
		t.Fatalf("SIGKILL standby: %v", err)
	}
	if got := reg.CounterValue("transport.tcp.standby.lost"); got != 1 {
		t.Fatalf("standby.lost = %d once the standby was reaped, want 1", got)
	}
	if got := tr.Standbys(); got != 0 {
		t.Fatalf("%d standbys after the standby died, want 0", got)
	}
	time.Sleep(50 * time.Millisecond) // room for a wrong report to land
	if st := rt.Stats(); st.PlacesFailed != 0 || reg.CounterValue("transport.tcp.deaths") != 0 {
		t.Fatalf("standby death reported as a place death: PlacesFailed %d, transport.tcp.deaths %d",
			st.PlacesFailed, reg.CounterValue("transport.tcp.deaths"))
	}

	added, err := rt.AddPlaces(1)
	if err != nil || len(added) != 1 || added[0].ID != 2 {
		t.Fatalf("AddPlaces(1) after the standby died = %v, %v; want place 2", added, err)
	}
	if got := reg.CounterValue("transport.tcp.standby.adopted"); got != 0 {
		t.Fatalf("standby.adopted = %d, want 0: the dead standby must not be adopted", got)
	}
	res, err := tr.Exec(&kernel.Task{Name: "tcptest.sum", Place: 2, I64: []int64{5}})
	if err != nil || res.Err != "" || len(res.F64) != 1 || res.F64[0] != 5 {
		t.Fatalf("first Exec at the freshly spawned place 2 = %+v, %v", res, err)
	}
	if place, _, err := tr.AwaitStandby(10 * time.Second); err != nil || place != 3 {
		t.Fatalf("replacement standby: place %d, %v; want place 3", place, err)
	}
	if st := rt.Stats(); st.PlacesFailed != 0 || reg.CounterValue("transport.tcp.deaths") != 0 {
		t.Fatalf("PlacesFailed %d, transport.tcp.deaths %d after the replacement; want 0, 0",
			st.PlacesFailed, reg.CounterValue("transport.tcp.deaths"))
	}
}

// TestRuntimeOverTCP drives the full apgas runtime over the tcp backend:
// finish/async across places, an administrative kill surfacing
// DeadPlaceError, and clean shutdown.
func TestRuntimeOverTCP(t *testing.T) {
	rt, err := apgas.New(
		apgas.WithPlaces(4),
		apgas.WithResilient(true),
		apgas.WithTransport(tcp.New(fastHeartbeat())),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()

	if rt.TransportName() != "tcp" {
		t.Fatalf("TransportName() = %q", rt.TransportName())
	}
	var ran [4]bool
	var mu sync.Mutex
	err = rt.Finish(func(ctx *apgas.Ctx) {
		for _, p := range rt.World() {
			p := p
			ctx.AsyncAt(p, func(c *apgas.Ctx) {
				mu.Lock()
				ran[c.Here.ID] = true
				mu.Unlock()
			})
		}
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	for i, ok := range ran {
		if !ok {
			t.Fatalf("task never ran at place %d", i)
		}
	}

	if err := rt.Kill(rt.Place(2)); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	err = rt.Finish(func(ctx *apgas.Ctx) {
		ctx.AsyncAt(rt.Place(2), func(c *apgas.Ctx) {})
	})
	var dpe *apgas.DeadPlaceError
	if !errors.As(err, &dpe) || dpe.Place.ID != 2 {
		t.Fatalf("Finish after kill = %v, want DeadPlaceError{place 2}", err)
	}
}

// TestRuntimeDetectsRealDeath kills a worker process behind the runtime's
// back and verifies the failure detector feeds the dead-place broadcast
// path: IsDead flips and tasks at the corpse observe DeadPlaceError.
func TestRuntimeDetectsRealDeath(t *testing.T) {
	tr := tcp.New(fastHeartbeat())
	rt, err := apgas.New(
		apgas.WithPlaces(3),
		apgas.WithResilient(true),
		apgas.WithTransport(tr),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()

	if err := tr.KillWorkerProcess(1); err != nil {
		t.Fatalf("KillWorkerProcess: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for !rt.IsDead(rt.Place(1)) {
		if time.Now().After(deadline) {
			t.Fatal("runtime never observed the real worker death")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := rt.Stats().PlacesFailed; got != 1 {
		t.Fatalf("Stats().PlacesFailed = %d, want 1", got)
	}
	err = rt.Finish(func(ctx *apgas.Ctx) {
		ctx.AsyncAt(rt.Place(1), func(c *apgas.Ctx) {})
	})
	var dpe *apgas.DeadPlaceError
	if !errors.As(err, &dpe) || dpe.Place.ID != 1 {
		t.Fatalf("Finish at corpse = %v, want DeadPlaceError{place 1}", err)
	}
}
