package tcp

import (
	"fmt"
	"net"
	"os"
	"os/exec"
)

// spawner gives places their bodies. Whatever a body is, its connection
// goes to admit, which expects the hello handshake, and from then on it
// speaks wire.go's frames; a spawner decides only how a body starts, is
// killed and is reaped. New uses the process spawner below.
type spawner interface {
	// listen readies the spawner to start bodies for t.
	listen(t *Transport) error
	// spawn starts the body of place p and returns its kill, which ends
	// the body at once without a word to it. Once the started body has
	// ended, spawn's caller is told by exited.
	spawn(t *Transport, p int, exited func()) (kill, error)
	// close stops admitting new connections.
	close()
}

// kill is a started body's handle: it ends the body (a SIGKILL).
type kill func() error

// procSpawner gives every place a child process that re-executes the
// running binary and dials back to the spawner's loopback listener.
type procSpawner struct {
	ln net.Listener
}

func (s *procSpawner) listen(t *Transport) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("tcp: listen: %w", err)
	}
	s.ln = ln
	t.wg.Add(1)
	go s.acceptLoop(t)
	return nil
}

// acceptLoop hands every inbound connection to admit.
func (s *procSpawner) acceptLoop(t *Transport) {
	defer t.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: shutdown
		}
		t.join(conn)
	}
}

// spawn re-executes the current binary as the body of place p, and reaps
// the process when it exits so a dead worker never lingers as a zombie.
// The child's RGML_TCP_WORKER environment routes it into MaybeWorker
// before any of its own main logic runs.
func (s *procSpawner) spawn(t *Transport, p int, exited func()) (kill, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("tcp: resolve own executable: %w", err)
	}
	spec := fmt.Sprintf("%s|%d|%d|%d", s.ln.Addr().String(), p, int64(t.interval), int64(t.timeout))
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), workerEnv+"="+spec)
	cmd.Stdout = os.Stderr // worker noise must not corrupt coordinator stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("tcp: spawn worker for place %d: %w", p, err)
	}
	go func() {
		cmd.Wait()
		exited()
	}()
	return cmd.Process.Kill, nil
}

func (s *procSpawner) close() {
	if s.ln != nil {
		s.ln.Close()
	}
}
