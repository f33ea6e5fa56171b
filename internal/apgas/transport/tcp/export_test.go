package tcp

import (
	"fmt"
	"net"
	"os"
	"time"
)

// WorkerRecords returns how many place bodies the transport remembers.
func (t *Transport) WorkerRecords() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.workers)
}

// DialStalledWorker joins the coordinator at addr as the given place and
// then behaves like a stopped process behind a full socket buffer: it
// keeps heartbeating (so only the write deadline can find it) and never
// reads. The returned function hangs up.
func DialStalledWorker(addr string, place int, interval time.Duration) (hangUp func(), err error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	fc := newFrameConn(conn, time.Minute)
	if _, err := fc.write(&frame{Type: fHello, From: int32(place), Ver: wireVersion}); err != nil {
		fc.close()
		return nil, err
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if _, err := fc.write(&frame{Type: fHeartbeat, From: int32(place)}); err != nil {
					return
				}
			}
		}
	}()
	return func() { close(stop); <-done; fc.close() }, nil
}

// Standbys returns how many standby bodies the transport keeps (0 or 1).
func (t *Transport) Standbys() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.standby != nil {
		return 1
	}
	return 0
}

// AwaitStandby waits up to timeout for a standby that has completed its
// hello, and returns its place id and process.
func (t *Transport) AwaitStandby(timeout time.Duration) (int, *os.Process, error) {
	for deadline := time.Now().Add(timeout); ; time.Sleep(time.Millisecond) {
		t.mu.Lock()
		var (
			place int
			proc  *os.Process
		)
		if sb := t.standby; sb != nil && sb.fc != nil {
			place, proc = sb.place, sb.proc
		}
		t.mu.Unlock()
		if proc != nil {
			return place, proc, nil
		}
		if time.Now().After(deadline) {
			return 0, nil, fmt.Errorf("no standby joined within %v", timeout)
		}
	}
}
