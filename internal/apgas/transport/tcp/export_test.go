package tcp

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"
)

// WorkerRecords returns how many place bodies the transport remembers.
func (t *Transport) WorkerRecords() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.workers)
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

// AwaitStandby waits up to timeout for the standby to complete its hello,
// and returns its place id and a function that kills it without a word
// to the coordinator and returns once the body has been reaped.
func (t *Transport) AwaitStandby(timeout time.Duration) (place int, kill func() error, err error) {
	t.mu.Lock()
	sb := t.standby
	t.mu.Unlock()
	if sb == nil {
		return 0, nil, errors.New("no standby")
	}
	select {
	case <-sb.ready:
	case <-sb.exited:
		return 0, nil, fmt.Errorf("the standby for place %d ended before it joined", sb.place)
	case <-time.After(timeout):
		return 0, nil, fmt.Errorf("no standby joined within %v", timeout)
	}
	// ready is closed after sb.kill was set, so the read needs no lock.
	return sb.place, func() error {
		err := sb.kill()
		<-sb.exited
		return err
	}, nil
}

// NewInProcess builds a transport whose place bodies run in this process
// (see pipeSpawner). A non-nil body runs in place of serve.
func NewInProcess(body func(conn net.Conn, place int) error, opts ...Option) *Transport {
	t := New(opts...)
	t.sp = &pipeSpawner{body: body}
	return t
}

// pipeSpawner is the in-process spawner: a place's body is serve, or the
// test's stand-in for it, on one end of a net.Pipe whose other end goes
// to admit as a dialled-in connection does. Its kill closes the body's
// end without a word, which is what a SIGKILL does to a socket; the body
// is reaped when it returns. It logs each kill ("kill P") and its close
// ("close") in call order.
type pipeSpawner struct {
	body func(conn net.Conn, place int) error

	mu  sync.Mutex
	log []string
}

func (s *pipeSpawner) record(event string) {
	s.mu.Lock()
	s.log = append(s.log, event)
	s.mu.Unlock()
}

// events returns the spawner's log so far.
func (s *pipeSpawner) events() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.log)
}

func (*pipeSpawner) listen(*Transport) error { return nil }
func (s *pipeSpawner) close()                { s.record("close") }

func (s *pipeSpawner) spawn(t *Transport, p int, exited func()) (kill, error) {
	conn := t.dialPipe()
	go func() {
		defer exited()
		defer conn.Close()
		if s.body != nil {
			s.body(conn, p)
		} else {
			serve(conn, p, t.interval, t.timeout)
		}
	}()
	return func() error {
		s.record(fmt.Sprintf("kill %d", p))
		return conn.Close()
	}, nil
}

// dialPipe hands one end of a fresh net.Pipe to admit, as the listener
// hands over a dialled-in connection, and returns the other end.
func (t *Transport) dialPipe() net.Conn {
	coord, body := net.Pipe()
	t.join(coord)
	return body
}
