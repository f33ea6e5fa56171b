package tcp

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/rgml/rgml/internal/apgas/transport"
)

// TestCloseWaitsForEveryBody pins Close's reaping: it dismisses every
// joined body — the workers and the standby — and waits on each one's
// exit, so when Close returns every body has returned, even one that
// takes a while to wind down after its dismissal, and each did so well
// inside the two-second grace after which Close would kill it instead.
func TestCloseWaitsForEveryBody(t *testing.T) {
	const interval, timeout = 10 * time.Millisecond, 2 * time.Second
	const windDown = 50 * time.Millisecond
	var mu sync.Mutex
	var ended []int
	body := func(conn net.Conn, place int) error {
		err := serve(conn, place, interval, timeout)
		time.Sleep(windDown) // a body's own teardown after the fBye
		mu.Lock()
		ended = append(ended, place)
		mu.Unlock()
		return err
	}
	tr := NewInProcess(body, WithHeartbeat(interval, timeout))
	if err := tr.Start(3, transport.Handler{}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	standby, _, err := tr.AwaitStandby(5 * time.Second)
	if err != nil {
		tr.Close()
		t.Fatalf("AwaitStandby: %v", err)
	}

	start := time.Now()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if took := time.Since(start); took >= 2*time.Second {
		t.Fatalf("Close took %v: its bodies were killed at the end of the grace, not dismissed", took)
	}
	mu.Lock()
	got := slices.Clone(ended)
	mu.Unlock()
	slices.Sort(got)
	if want := []int{1, 2, standby}; !slices.Equal(got, want) {
		t.Fatalf("bodies ended by the time Close returned: %v, want %v", got, want)
	}
}

// TestCloseKillsUnjoinedBodiesFirst: a body that has not said hello yet
// (here a standby whose stand-in never does) is killed before the spawner
// stops listening, so no body is left to dial a closed listener — a
// process body would log "connection refused" on its way out.
func TestCloseKillsUnjoinedBodiesFirst(t *testing.T) {
	const interval, timeout = 10 * time.Millisecond, 2 * time.Second
	silent := make(chan int, 1)
	body := func(conn net.Conn, place int) error {
		if place < 3 {
			return serve(conn, place, interval, timeout)
		}
		silent <- place
		_, err := conn.Read(make([]byte, 1)) // no hello: wait for the kill
		return err
	}
	tr := NewInProcess(body, WithHeartbeat(interval, timeout))
	if err := tr.Start(3, transport.Handler{}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	var standby int
	select {
	case standby = <-silent:
	case <-time.After(5 * time.Second):
		tr.Close()
		t.Fatal("the standby's body never started")
	}
	// The body runs before spawnWorker records its kill: wait for the
	// record, so the kill Close finds is the one under test.
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		tr.mu.Lock()
		armed := tr.standby != nil && tr.standby.kill != nil
		tr.mu.Unlock()
		if armed {
			break
		}
		if time.Now().After(deadline) {
			tr.Close()
			t.Fatal("the standby's kill was never recorded")
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	events := tr.sp.(*pipeSpawner).events()
	kill := slices.Index(events, fmt.Sprintf("kill %d", standby))
	closed := slices.Index(events, "close")
	if kill < 0 || closed < 0 || kill > closed {
		t.Fatalf("spawner events %v: want the unjoined standby %d killed before the spawner closes", events, standby)
	}
}
