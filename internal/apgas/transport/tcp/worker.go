package tcp

import (
	"fmt"
	"net"
	"os"
	"time"

	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/codec"
)

// The worker side of the backend: the process embodying one non-zero
// place. A worker is a real failure domain and — since the registered-
// kernel data plane — a real compute server. It dials the coordinator,
// announces its place and wire version (fHello), heartbeats on the
// configured interval, executes inbound kernel tasks (fTask) against its
// place-local kernel.Store and answers with fResult frames, and exits
// when told (fKill, fBye) or when the coordinator disappears. Killing
// the process is a genuine fail-stop that the coordinator's detector
// discovers the hard way.

// MaybeWorker turns the current process into a transport worker when the
// RGML_TCP_WORKER environment variable is set, never returning in that
// case (it serves, then os.Exits). Call it first thing in main() — and in
// TestMain of any test binary that constructs a tcp-backed runtime —
// so the coordinator can self-spawn the running binary as its workers:
//
//	func main() {
//	    tcp.MaybeWorker()
//	    // normal program
//	}
//
// With the variable unset it is a no-op, so the call is free for every
// other invocation of the binary. Kernel registration happens at package
// init, which runs before main — so by the time MaybeWorker serves, the
// worker resolves exactly the names the coordinator registered.
func MaybeWorker() {
	spec := os.Getenv(workerEnv)
	if spec == "" {
		return
	}
	addr, place, interval, timeout, err := parseWorkerSpec(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// A worker that cannot reach the coordinator promptly fails fast and
	// loudly.
	conn, err := net.DialTimeout("tcp", addr, max(5*time.Second, timeout))
	if err != nil {
		err = fmt.Errorf("tcp: dial coordinator %s: %w", addr, err)
	} else {
		err = serve(conn, place, interval, timeout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rgml tcp worker (place %d): %v\n", place, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// serve runs the worker protocol for one place over conn, its connection
// to the coordinator: handshake, heartbeat every interval, execute kernel
// tasks until dismissed. It returns nil on a clean dismissal (fBye,
// fKill, or coordinator EOF) and an error for anything unexpected.
func serve(conn net.Conn, place int, interval, timeout time.Duration) error {
	if interval <= 0 {
		interval = DefaultDialInterval(timeout)
	}
	if timeout <= 0 {
		timeout = transport.DefaultHeartbeatTimeout
	}
	fc := newFrameConn(conn, timeout)
	defer fc.close()
	if _, err := fc.write(&frame{Type: fHello, From: int32(place), Ver: wireVersion}); err != nil {
		return fmt.Errorf("tcp: hello: %w", err)
	}

	// Heartbeat writer: its own goroutine, so a long inbound read — or a
	// long-running kernel — never starves the liveness beacon.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			if _, err := fc.write(&frame{Type: fHeartbeat, From: int32(place)}); err != nil {
				return // coordinator gone; the read loop is exiting too
			}
		}
	}()

	// Kernel executor: ONE goroutine owning the place's store, consuming
	// tasks in arrival order — the serial-per-place execution the
	// coordinator's dispatch contract assumes (a task's Refs name exact
	// store versions; concurrent execution could interleave installs).
	// It is separate from the read loop so a long kernel never blocks
	// frame draining (an fKill must get through mid-GEMV).
	tasks := make(chan *frame, 256)
	defer close(tasks)
	go runKernels(fc, place, tasks)

	for {
		f := new(frame)
		if _, err := fc.read(f); err != nil {
			// Coordinator closed the wire: for a worker that is a
			// dismissal, not an error — the run is simply over.
			return nil
		}
		switch f.Type {
		case fKill, fBye:
			return nil
		case fTask:
			tasks <- f
		}
	}
}

// runKernels executes inbound tasks against the worker's place-local
// store and writes their results back. Every outcome — including a
// kernel panic, folded into Result.Err by kernel.Run — produces exactly
// one fResult for its fTask's Seq; write errors end the loop early
// (coordinator gone, and the read loop is tearing everything down).
//
// Buffer ownership: the task's Puts arrived in pooled buffers that the
// store now owns and returns to the pool when an entry is
// replaced or dropped; the task's Payload and a pooled result's outputs
// go back as soon as the result is on the wire.
func runKernels(fc *frameConn, place int, tasks <-chan *frame) {
	ex := &kernel.Exec{Place: place, Store: kernel.NewStore()}
	for f := range tasks {
		res := kernel.Run(ex, f.Task)
		_, err := fc.write(&frame{Type: fResult, From: int32(place), Seq: f.Seq, Result: res})
		res.Release()
		codec.PutBuffer(f.Task.Payload)
		if err != nil {
			// Coordinator unreachable. Keep draining (without executing)
			// until the read loop closes the channel, so it never blocks
			// on a full buffer while trying to reach its own exit.
			for range tasks {
			}
			return
		}
	}
}

// DefaultDialInterval derives a sane heartbeat interval when none was
// configured: a quarter of the timeout, floored at a millisecond, or the
// package default when no timeout is known either.
func DefaultDialInterval(timeout time.Duration) time.Duration {
	if timeout <= 0 {
		return transport.DefaultHeartbeatInterval
	}
	iv := timeout / 4
	if iv < time.Millisecond {
		iv = time.Millisecond
	}
	return iv
}
