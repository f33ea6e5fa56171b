package tcp

import (
	"net"
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
