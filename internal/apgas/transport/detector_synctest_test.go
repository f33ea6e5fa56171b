//go:build goexperiment.synctest

package transport

import (
	"testing"
	"testing/synctest"
	"time"
)

// The synctest suite pins the Detector's timing contract under a paused
// clock: sleeps advance virtual time instantly and deterministically, so
// the bounds below are exact, not statistical. Run with:
//
//	GOEXPERIMENT=synctest GODEBUG=asynctimerchan=0 \
//	    go test -run Synctest ./internal/apgas/transport/
//
// (make race-synctest runs it; asynctimerchan=0 is
// needed because the module's go directive predates the new timer
// semantics synctest requires).

const (
	sInterval = 50 * time.Millisecond
	sTimeout  = 250 * time.Millisecond
)

// TestSynctestDetectionLatencyBounds verifies a silent place is declared
// dead no earlier than timeout after its last beat and no later than
// timeout + interval (one sweep of slack).
func TestSynctestDetectionLatencyBounds(t *testing.T) {
	synctest.Run(func() {
		var rec deathRecorder
		declared := make(chan time.Time, 1)
		d := NewDetector(sInterval, sTimeout, func(p int, c DeathCause) {
			rec.record(p, c)
			declared <- time.Now()
		})
		d.Watch(1)
		start := time.Now()
		d.Start()
		defer d.Stop()

		// The place never beats after Watch. Advance past the upper bound.
		time.Sleep(sTimeout + 2*sInterval)
		synctest.Wait()

		select {
		case at := <-declared:
			latency := at.Sub(start)
			if latency <= sTimeout {
				t.Fatalf("declared dead after %v, before the %v timeout elapsed", latency, sTimeout)
			}
			if latency > sTimeout+sInterval {
				t.Fatalf("declared dead after %v, beyond timeout+interval = %v", latency, sTimeout+sInterval)
			}
		default:
			t.Fatal("silent place was never declared dead")
		}
		got := rec.snapshot()
		if len(got) != 1 || got[0] != 1 {
			t.Fatalf("deaths = %v, want exactly [1]", got)
		}
	})
}

// TestSynctestNoFalsePositives verifies a place beating at a regular
// interval is never declared dead, across many timeout windows of paused
// time.
func TestSynctestNoFalsePositives(t *testing.T) {
	synctest.Run(func() {
		var rec deathRecorder
		d := NewDetector(sInterval, sTimeout, rec.record)
		d.Watch(1)
		d.Start()

		// Beat every interval for 40 windows' worth of virtual time.
		for i := 0; i < 200; i++ {
			time.Sleep(sInterval)
			if !d.Beat(1) {
				t.Fatalf("Beat rejected at iteration %d: place declared dead", i)
			}
		}
		synctest.Wait()
		if got := rec.snapshot(); len(got) != 0 {
			t.Fatalf("false positives: %v", got)
		}
		d.Stop()
	})
}

// TestSynctestFlappingSuppression verifies irregular (flapping) beats
// that always stay within the timeout window never trigger a death, and
// that a single beat just inside the window resets it fully.
func TestSynctestFlappingSuppression(t *testing.T) {
	synctest.Run(func() {
		var rec deathRecorder
		d := NewDetector(sInterval, sTimeout, rec.record)
		d.Watch(1)
		d.Start()

		// Irregular gaps, each below the timeout: bursts then near-misses.
		gaps := []time.Duration{
			sInterval / 5, sInterval / 5, sTimeout - sInterval/2, // near miss
			sInterval, sTimeout - sInterval/2, // another near miss
			sInterval / 10, sInterval / 10, sInterval / 10,
			sTimeout - sInterval/2,
		}
		for round := 0; round < 20; round++ {
			for i, g := range gaps {
				time.Sleep(g)
				if !d.Beat(1) {
					t.Fatalf("flapping beat rejected (round %d, gap %d): place declared dead", round, i)
				}
			}
		}
		synctest.Wait()
		if got := rec.snapshot(); len(got) != 0 {
			t.Fatalf("flapping within the window produced deaths: %v", got)
		}

		// Now actually go silent: the suppression must not have weakened
		// real detection.
		time.Sleep(sTimeout + 2*sInterval)
		synctest.Wait()
		got := rec.snapshot()
		if len(got) != 1 || got[0] != 1 {
			t.Fatalf("after real silence, deaths = %v, want [1]", got)
		}
		d.Stop()
	})
}

// TestSynctestGrownPlaceFullWindow verifies the Grow interaction: a place
// Watch-ed long after Start — mid-sweep-schedule, the way tcp.Grow admits
// a freshly spawned worker — gets its own full timeout window measured
// from the Watch, not from Start or from any sweep boundary. The worker's
// process may take most of the window to re-exec and send its hello, so a
// detector that aged grown places from an earlier epoch would kill every
// slow join.
func TestSynctestGrownPlaceFullWindow(t *testing.T) {
	synctest.Run(func() {
		var rec deathRecorder
		declared := make(chan time.Time, 1)
		d := NewDetector(sInterval, sTimeout, func(p int, c DeathCause) {
			rec.record(p, c)
			declared <- time.Now()
		})
		d.Start()
		defer d.Stop()

		// Sweeps have been running for a while, deliberately offset from
		// any window boundary, before the place is grown.
		time.Sleep(3*sTimeout + sInterval/3)
		watched := time.Now()
		d.Watch(7)

		// Just shy of the timeout after Watch: still alive, even though
		// many sweeps have fired since Start.
		time.Sleep(sTimeout - sInterval/2)
		synctest.Wait()
		if d.Dead(7) {
			t.Fatal("grown place declared dead before its own timeout window elapsed")
		}

		// It never beats (died between Grow and its first heartbeat). It
		// must be declared dead within (timeout, timeout+interval] of the
		// Watch — detection is not deferred to some later epoch either.
		time.Sleep(3 * sInterval)
		synctest.Wait()
		select {
		case at := <-declared:
			latency := at.Sub(watched)
			if latency <= sTimeout {
				t.Fatalf("declared dead %v after Watch, before the %v timeout", latency, sTimeout)
			}
			if latency > sTimeout+sInterval {
				t.Fatalf("declared dead %v after Watch, beyond timeout+interval = %v", latency, sTimeout+sInterval)
			}
		default:
			t.Fatal("grown place that never beat was not declared dead")
		}
		if got := rec.snapshot(); len(got) != 1 || got[0] != 7 {
			t.Fatalf("deaths = %v, want exactly [7]", got)
		}
	})
}

// TestSynctestGrownPlaceBeatsSurvive verifies the complementary Grow
// interaction: a place Watch-ed mid-run whose first beat arrives late in
// its window (a slow process spawn) survives, and keeps surviving on a
// normal beat cadence afterwards, while an established silent place dies
// on schedule — growth must not mask unrelated detections.
func TestSynctestGrownPlaceBeatsSurvive(t *testing.T) {
	synctest.Run(func() {
		var rec deathRecorder
		d := NewDetector(sInterval, sTimeout, rec.record)
		d.Watch(1) // established place, will go silent
		d.Start()
		defer d.Stop()

		time.Sleep(2 * sInterval)
		d.Watch(2) // grown place
		// Its hello/first beat lands only just inside its window...
		time.Sleep(sTimeout - sInterval/2)
		if !d.Beat(2) {
			t.Fatal("first beat of grown place rejected: declared dead inside its window")
		}
		// ...and it beats normally from then on, across several windows.
		for i := 0; i < 40; i++ {
			time.Sleep(sInterval)
			if !d.Beat(2) {
				t.Fatalf("grown place declared dead at steady-state beat %d", i)
			}
		}
		synctest.Wait()
		// Place 1 went silent at Start and must have died on its own
		// schedule; the grown place must not appear.
		got := rec.snapshot()
		if len(got) != 1 || got[0] != 1 {
			t.Fatalf("deaths = %v, want exactly [1]", got)
		}
	})
}

// TestSynctestLateBeatAfterDeclaration verifies the fail-stop contract
// under paused time: a beat arriving after the declaration is suppressed
// and does not resurrect the place.
func TestSynctestLateBeatAfterDeclaration(t *testing.T) {
	synctest.Run(func() {
		var rec deathRecorder
		d := NewDetector(sInterval, sTimeout, rec.record)
		d.Watch(1)
		d.Start()

		time.Sleep(sTimeout + 2*sInterval)
		synctest.Wait()
		if !d.Dead(1) {
			t.Fatal("place not declared dead after silence")
		}
		if d.Beat(1) {
			t.Fatal("late beat accepted after death declaration")
		}
		time.Sleep(10 * sTimeout)
		synctest.Wait()
		if got := rec.snapshot(); len(got) != 1 {
			t.Fatalf("deaths = %v, want exactly one", got)
		}
		d.Stop()
	})
}
