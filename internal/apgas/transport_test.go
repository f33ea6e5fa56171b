package apgas_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/obs"
)

// fakeTransport records traffic and hands the runtime's Handler back to
// the test, so transport-detected deaths can be injected directly.
type fakeTransport struct {
	mu      sync.Mutex
	handler transport.Handler
	sends   []fakeSend
	kills   []int
	grown   int
	closed  bool
}

type fakeSend struct {
	from, to int
	class    transport.Class
	size     int
	payload  []byte
}

func (f *fakeTransport) Name() string { return "fake" }

func (f *fakeTransport) Start(places int, h transport.Handler) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.handler = h
	return nil
}

func (f *fakeTransport) Send(from, to int, class transport.Class, size int, payload []byte) (time.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sends = append(f.sends, fakeSend{from, to, class, size, payload})
	return 0, nil
}

func (f *fakeTransport) Kill(place int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.kills = append(f.kills, place)
	return nil
}

func (f *fakeTransport) Grow(n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.grown += n
	return nil
}

func (f *fakeTransport) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

func (f *fakeTransport) placeDead(place int, cause transport.DeathCause) {
	f.mu.Lock()
	h := f.handler
	f.mu.Unlock()
	h.PlaceDead(place, cause)
}

func TestWithTransportNilRejected(t *testing.T) {
	_, err := apgas.New(apgas.WithTransport(nil))
	if !errors.Is(err, apgas.ErrBadOption) {
		t.Fatalf("New(WithTransport(nil)) = %v, want ErrBadOption", err)
	}
}

func TestTransportSeamTrafficAndLifecycle(t *testing.T) {
	ft := &fakeTransport{}
	reg := obs.NewRegistry()
	rt, err := apgas.New(
		apgas.WithPlaces(3),
		apgas.WithResilient(true),
		apgas.WithTransport(ft),
		apgas.WithObs(reg),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if rt.TransportName() != "fake" {
		t.Fatalf("TransportName() = %q", rt.TransportName())
	}

	err = rt.Finish(func(ctx *apgas.Ctx) {
		ctx.AsyncAt(rt.Place(1), func(c *apgas.Ctx) {
			c.Transfer(rt.Place(2), 512)
			c.TransferSnapshot(rt.Place(2), 4)
		})
	})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}

	ft.mu.Lock()
	var byClass [transport.NumClasses]int
	var sawSnapshot, sawPayload bool
	for _, s := range ft.sends {
		byClass[s.class]++
		if s.class == transport.ClassSnapshot && s.size == 4 && s.from == 1 && s.to == 2 {
			sawSnapshot = true
		}
		if s.payload != nil {
			sawPayload = true
		}
	}
	ft.mu.Unlock()
	if byClass[transport.ClassTask] == 0 {
		t.Fatal("no ClassTask traffic crossed the seam")
	}
	if byClass[transport.ClassControl] == 0 {
		t.Fatal("no ClassControl (ledger) traffic crossed the seam")
	}
	if byClass[transport.ClassData] != 1 {
		t.Fatalf("ClassData sends = %d, want 1", byClass[transport.ClassData])
	}
	if !sawSnapshot {
		t.Fatal("TransferSnapshot did not reach the seam as a 4-byte snapshot-class send from place 1 to 2")
	}
	if sawPayload {
		t.Fatal("a send reached the seam with a payload; every message is declared by size")
	}
	// Per-class obs counters mirror what crossed.
	if got := reg.Counter("apgas.transport.data.bytes").Value(); got != 512 {
		t.Fatalf("apgas.transport.data.bytes = %d, want 512", got)
	}
	if got := reg.Counter("apgas.transport.snapshot.bytes").Value(); got != 4 {
		t.Fatalf("apgas.transport.snapshot.bytes = %d, want 4", got)
	}

	// Administrative kill reaches the backend after the runtime marked
	// the place dead.
	if err := rt.Kill(rt.Place(2)); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	ft.mu.Lock()
	kills := append([]int(nil), ft.kills...)
	ft.mu.Unlock()
	if len(kills) != 1 || kills[0] != 2 {
		t.Fatalf("transport kills = %v, want [2]", kills)
	}

	// AddPlaces grows the backend.
	if _, err := rt.AddPlaces(2); err != nil {
		t.Fatalf("AddPlaces: %v", err)
	}
	ft.mu.Lock()
	grown := ft.grown
	ft.mu.Unlock()
	if grown != 2 {
		t.Fatalf("transport grown = %d, want 2", grown)
	}

	rt.Shutdown()
	ft.mu.Lock()
	closed := ft.closed
	ft.mu.Unlock()
	if !closed {
		t.Fatal("Shutdown did not close the transport")
	}
}

// TestTransportDeathFeedsBroadcastPath injects detector-style death
// reports and verifies they ride the same dead-place machinery as kills:
// IsDead flips, orphan tasks observe DeadPlaceError, stats are counted
// once, and place zero plus duplicates are ignored.
func TestTransportDeathFeedsBroadcastPath(t *testing.T) {
	ft := &fakeTransport{}
	rt, err := apgas.New(
		apgas.WithPlaces(4),
		apgas.WithResilient(true),
		apgas.WithTransport(ft),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()

	ft.placeDead(3, transport.CauseTimeout)
	if !rt.IsDead(rt.Place(3)) {
		t.Fatal("transport-reported death did not mark the place dead")
	}
	s := rt.Stats()
	if s.PlacesFailed != 1 {
		t.Fatalf("PlacesFailed = %d, want 1", s.PlacesFailed)
	}
	if s.PlacesKilled != 0 {
		t.Fatalf("PlacesKilled = %d, want 0 (real failure, not a kill)", s.PlacesKilled)
	}

	// Duplicate and bogus reports are no-ops.
	ft.placeDead(3, transport.CauseConn)
	ft.placeDead(0, transport.CauseTimeout)
	ft.placeDead(99, transport.CauseTimeout)
	s = rt.Stats()
	if s.PlacesFailed != 1 {
		t.Fatalf("after duplicates, PlacesFailed = %d, want 1", s.PlacesFailed)
	}
	if rt.IsDead(rt.Place(0)) {
		t.Fatal("place zero marked dead by a transport report")
	}

	// The corpse delivers DeadPlaceError exactly like a killed place.
	err = rt.Finish(func(ctx *apgas.Ctx) {
		ctx.AsyncAt(rt.Place(3), func(c *apgas.Ctx) {})
	})
	var dpe *apgas.DeadPlaceError
	if !errors.As(err, &dpe) || dpe.Place.ID != 3 {
		t.Fatalf("Finish at failed place = %v, want DeadPlaceError{place 3}", err)
	}
}

// TestTransportDeathRacesKill drives a concurrent administrative kill and
// detector report at the same place: exactly one of the two accounting
// paths must win.
func TestTransportDeathRacesKill(t *testing.T) {
	for i := 0; i < 50; i++ {
		ft := &fakeTransport{}
		rt, err := apgas.New(
			apgas.WithPlaces(3),
			apgas.WithResilient(true),
			apgas.WithTransport(ft),
		)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); rt.Kill(rt.Place(1)) }()
		go func() { defer wg.Done(); ft.placeDead(1, transport.CauseConn) }()
		wg.Wait()
		s := rt.Stats()
		if s.PlacesKilled+s.PlacesFailed != 1 {
			t.Fatalf("iteration %d: PlacesKilled=%d PlacesFailed=%d, want exactly one death accounted",
				i, s.PlacesKilled, s.PlacesFailed)
		}
		rt.Shutdown()
	}
}

// blockingGrow is a fakeTransport whose Grow announces itself on entered
// and then blocks until release is closed: a tcp Grow waiting seconds for
// a worker to join.
type blockingGrow struct {
	fakeTransport
	entered chan int
	release chan struct{}
}

func (b *blockingGrow) Grow(n int) error {
	b.entered <- n
	<-b.release
	return b.fakeTransport.Grow(n)
}

// TestAddPlacesGrowsOutsidePlaceTableLock blocks the transport's Grow
// inside AddPlaces and checks that the runtime keeps working meanwhile:
// IsDead, a transport-reported death and a Finish at place 0 spawning
// onto place 1 all complete. A second AddPlaces waits for the first, and
// the two get consecutive ids.
func TestAddPlacesGrowsOutsidePlaceTableLock(t *testing.T) {
	bt := &blockingGrow{entered: make(chan int, 2), release: make(chan struct{})}
	rt, err := apgas.New(apgas.WithPlaces(3), apgas.WithResilient(true), apgas.WithTransport(bt))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()
	released := false
	release := func() {
		if !released {
			released = true
			close(bt.release)
		}
	}
	defer release()

	type grown struct {
		g   apgas.PlaceGroup
		err error
	}
	first, second := make(chan grown, 1), make(chan grown, 1)
	go func() { g, err := rt.AddPlaces(1); first <- grown{g, err} }()
	<-bt.entered

	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); fn() }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s blocked while the transport's Grow was in progress", what)
		}
	}
	within("IsDead", func() {
		if rt.IsDead(apgas.Place{ID: 1}) {
			t.Error("place 1 reported dead")
		}
	})
	within("a transport-reported death", func() { bt.placeDead(2, transport.CauseConn) })
	within("IsDead after the death", func() {
		if !rt.IsDead(apgas.Place{ID: 2}) {
			t.Error("place 2 not dead after its death was reported")
		}
	})
	within("Finish at place 0", func() {
		ran := false
		err := rt.Finish(func(ctx *apgas.Ctx) {
			ctx.AsyncAt(apgas.Place{ID: 1}, func(*apgas.Ctx) { ran = true })
		})
		if err != nil || !ran {
			t.Errorf("Finish = %v, task ran %v", err, ran)
		}
	})

	go func() { g, err := rt.AddPlaces(2); second <- grown{g, err} }()
	time.Sleep(20 * time.Millisecond)
	if len(bt.entered) != 0 {
		t.Fatal("a second AddPlaces entered Grow while the first was still in it")
	}
	release()
	a, b := <-first, <-second
	if a.err != nil || b.err != nil {
		t.Fatalf("AddPlaces: %v, %v", a.err, b.err)
	}
	if !a.g.Equal(apgas.PlaceGroup{{ID: 3}}) || !b.g.Equal(apgas.PlaceGroup{{ID: 4}, {ID: 5}}) {
		t.Fatalf("AddPlaces gave %v then %v, want [3] then [4 5]", a.g, b.g)
	}
	if got := rt.NumPlaces(); got != 6 {
		t.Fatalf("NumPlaces = %d, want 6", got)
	}
}
