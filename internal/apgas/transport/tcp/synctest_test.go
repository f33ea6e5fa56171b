//go:build goexperiment.synctest

package tcp

import (
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"github.com/rgml/rgml/internal/apgas/kernel"
	"github.com/rgml/rgml/internal/apgas/transport"
	"github.com/rgml/rgml/internal/obs"
)

// The fault classes of the tcp backend that are not a clean process
// death, each over in-process bodies (NewInProcess) under a paused clock:
// no real socket or process is in the bubble, so every latency below is
// exact. Run with:
//
//	GOEXPERIMENT=synctest GODEBUG=asynctimerchan=0 \
//	    go test -race -run Synctest ./internal/apgas/transport/...
//
// (make race-synctest; asynctimerchan=0 is needed because the module's go
// directive predates the timer semantics synctest requires).

const (
	sInterval = 10 * time.Millisecond
	sTimeout  = 300 * time.Millisecond
)

// report is one PlaceDead call, stamped with the virtual time since the
// transport started.
type report struct {
	place int
	cause transport.DeathCause
	at    time.Duration
}

// reports collects PlaceDead calls from the detector and reader
// goroutines.
type reports struct {
	mu    sync.Mutex
	start time.Time
	got   []report
}

func (r *reports) add(place int, cause transport.DeathCause) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got = append(r.got, report{place, cause, time.Since(r.start)})
}

func (r *reports) all() []report {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]report(nil), r.got...)
}

// startInProcess starts an in-process transport of places places whose
// bodies run body (serve when nil), and returns it with the death reports
// it makes. Start takes no virtual time: every body joins at once.
func startInProcess(t *testing.T, places int, body func(net.Conn, int) error, reg *obs.Registry) (*Transport, *reports) {
	t.Helper()
	tr := NewInProcess(body, WithHeartbeat(sInterval, sTimeout), WithObs(reg))
	rep := &reports{start: time.Now()}
	if err := tr.Start(places, transport.Handler{PlaceDead: rep.add}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if took := time.Since(rep.start); took != 0 {
		t.Fatalf("Start took %v of virtual time, want 0", took)
	}
	return tr, rep
}

// wantReports fails the test unless the death reports are exactly want.
func wantReports(t *testing.T, rep *reports, want ...report) {
	t.Helper()
	if got := rep.all(); !slices.Equal(got, want) {
		t.Fatalf("death reports %+v, want %+v", got, want)
	}
}

// TestSynctestStalledWorker: a body that heartbeats and never reads. A
// TASK frame carrying a 4 MiB put blocks on it until exactly its write
// deadline — the detector timeout plus the frame's size at writeFloor —
// and the place is reported dead once, by connection loss, at that
// instant. Its beats alone never time it out.
func TestSynctestStalledWorker(t *testing.T) {
	synctest.Run(func() {
		tr, rep := startInProcess(t, 2, stallAt(1, sInterval, sTimeout), nil)
		defer tr.Close()
		task := &kernel.Task{Name: kernel.PutName, Place: 1, Puts: []kernel.Blob{{Handle: 1, Data: make([]byte, 4<<20)}}}
		_, sizes := encodeFrames(t, &frame{Type: fTask, To: 1, Seq: 1, Task: task})
		deadline := sTimeout + time.Duration(sizes[0]-4)*time.Second/writeFloor

		if _, err := tr.Exec(task); err == nil {
			t.Fatal("a call succeeded against a peer that never reads")
		}
		if took := time.Since(rep.start); took != deadline {
			t.Fatalf("the call failed after %v, want exactly the write deadline %v", took, deadline)
		}
		time.Sleep(3 * sTimeout)
		synctest.Wait()
		wantReports(t, rep, report{1, transport.CauseConn, deadline})
		if _, err := tr.Send(0, 1, transport.ClassTask, 0, nil); err == nil {
			t.Fatal("Send to the stalled place succeeded after its death")
		}
	})
}

// TestSynctestTruncatedFrame: a body that beats five times, then sends
// half a frame and goes quiet on a live connection. The coordinator's
// reader waits for the rest of the frame, so no later beat can arrive;
// the detector declares the place dead at its first sweep more than a
// timeout after the last beat, exactly timeout+interval after it, and
// only once.
func TestSynctestTruncatedFrame(t *testing.T) {
	synctest.Run(func() {
		const beats = 5
		frameBytes, _ := encodeFrames(t, &frame{Type: fResult, From: 1, Seq: 1, Result: &kernel.Result{Payload: make([]byte, 64)}})
		truncate := func(conn net.Conn, place int) error {
			if place != 1 {
				return serve(conn, place, sInterval, sTimeout)
			}
			fc := newFrameConn(conn, time.Minute)
			if _, err := fc.write(&frame{Type: fHello, From: 1, Ver: wireVersion}); err != nil {
				return err
			}
			for i := 0; i < beats; i++ {
				time.Sleep(sInterval)
				if _, err := fc.write(&frame{Type: fHeartbeat, From: 1}); err != nil {
					return err
				}
			}
			if _, err := conn.Write(frameBytes[:len(frameBytes)/2]); err != nil {
				return err
			}
			_, err := io.Copy(io.Discard, conn) // live: reads until cut
			return err
		}
		tr, rep := startInProcess(t, 2, truncate, nil)
		defer tr.Close()
		time.Sleep(beats*sInterval + 3*sTimeout)
		synctest.Wait()
		wantReports(t, rep, report{1, transport.CauseTimeout, beats*sInterval + sTimeout + sInterval})
		if got := tr.WorkerRecords(); got != 0 {
			t.Fatalf("%d worker records after place 1 died, want 0", got)
		}
	})
}

// TestSynctestAbruptClose: the in-process SIGKILL closes the body's end of
// its connection with no fKill. The coordinator reads the end of stream
// and reports the place dead by connection loss at once, and once: the
// detector, told by that report, never times it out too.
func TestSynctestAbruptClose(t *testing.T) {
	synctest.Run(func() {
		tr, rep := startInProcess(t, 3, nil, nil)
		defer tr.Close()
		time.Sleep(sTimeout)
		if err := tr.KillWorkerProcess(1); err != nil {
			t.Fatalf("KillWorkerProcess(1): %v", err)
		}
		synctest.Wait()
		wantReports(t, rep, report{1, transport.CauseConn, sTimeout})
		time.Sleep(3 * sTimeout)
		synctest.Wait()
		wantReports(t, rep, report{1, transport.CauseConn, sTimeout})
		if _, err := tr.Send(0, 2, transport.ClassTask, 0, nil); err != nil {
			t.Fatalf("Send to surviving place 2: %v", err)
		}
	})
}

// TestSynctestLateHelloAfterKill: once Kill has forgotten a place, a hello
// claiming it is refused at once — the connection is closed, nothing is
// reported, and the refusal is not a version rejection — and the place
// stays dead.
func TestSynctestLateHelloAfterKill(t *testing.T) {
	synctest.Run(func() {
		reg := obs.NewRegistry()
		tr, rep := startInProcess(t, 2, nil, reg)
		defer tr.Close()
		if err := tr.Kill(1); err != nil {
			t.Fatalf("Kill(1): %v", err)
		}
		synctest.Wait()
		conn := tr.dialPipe()
		defer conn.Close()
		fc := newFrameConn(conn, time.Minute)
		if _, err := fc.write(&frame{Type: fHello, From: 1, Ver: wireVersion}); err != nil {
			t.Fatalf("late hello: %v", err)
		}
		var f frame
		if _, err := fc.read(&f); err == nil {
			t.Fatalf("coordinator answered a late hello for a forgotten place with a %v frame", f.Type)
		}
		if took := time.Since(rep.start); took != 0 {
			t.Fatalf("late hello refused after %v, want at once", took)
		}
		time.Sleep(3 * sTimeout)
		synctest.Wait()
		wantReports(t, rep)
		if got := reg.CounterValue("transport.tcp.hello_rejected"); got != 0 {
			t.Fatalf("hello_rejected = %d, want 0: the hello spoke the current version", got)
		}
		if got := reg.CounterValue("transport.tcp.deaths"); got != 0 {
			t.Fatalf("transport.tcp.deaths = %d, want 0", got)
		}
		if _, err := tr.Send(0, 1, transport.ClassTask, 0, nil); err == nil {
			t.Fatal("Send to the killed place succeeded after a late hello")
		}
	})
}

// TestSynctestStandbyDeathBeforeGrow: the standby dies before Grow adopts
// it. It was never a place, so nothing is reported and no place death is
// counted; it is only counted lost. Grow then brings up a fresh body for
// the place at once, and a new standby after it.
func TestSynctestStandbyDeathBeforeGrow(t *testing.T) {
	synctest.Run(func() {
		reg := obs.NewRegistry()
		tr, rep := startInProcess(t, 2, nil, reg)
		defer tr.Close()
		place, kill, err := tr.AwaitStandby(time.Second)
		if err != nil || place != 2 {
			t.Fatalf("standby after Start: place %d, %v; want place 2", place, err)
		}
		if err := kill(); err != nil {
			t.Fatalf("kill the standby: %v", err)
		}
		synctest.Wait()
		if got := reg.CounterValue("transport.tcp.standby.lost"); got != 1 {
			t.Fatalf("standby.lost = %d, want 1", got)
		}
		if took := time.Since(rep.start); took != 0 {
			t.Fatalf("the standby's loss was counted after %v, want at once", took)
		}
		if got := tr.Standbys(); got != 0 {
			t.Fatalf("%d standbys after the standby died, want 0", got)
		}
		wantReports(t, rep)
		if got := reg.CounterValue("transport.tcp.deaths"); got != 0 {
			t.Fatalf("transport.tcp.deaths = %d after a standby died, want 0", got)
		}

		if err := tr.Grow(1); err != nil {
			t.Fatalf("Grow(1): %v", err)
		}
		if took := time.Since(rep.start); took != 0 {
			t.Fatalf("Grow(1) took %v of virtual time, want 0", took)
		}
		if got := reg.CounterValue("transport.tcp.standby.adopted"); got != 0 {
			t.Fatalf("standby.adopted = %d, want 0: the dead standby must not be adopted", got)
		}
		res, err := tr.Exec(&kernel.Task{Name: kernel.PutName, Place: 2, Puts: []kernel.Blob{{Handle: 1, Ver: 1, Data: []byte("x")}}})
		if err != nil || res.Err != "" {
			t.Fatalf("first Exec at the fresh place 2 = %+v, %v", res, err)
		}
		if place, _, err := tr.AwaitStandby(time.Second); err != nil || place != 3 {
			t.Fatalf("standby after Grow(1): place %d, %v; want place 3", place, err)
		}
		time.Sleep(3 * sTimeout)
		synctest.Wait()
		wantReports(t, rep)
	})
}
