package tcp

import (
	"net"
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
