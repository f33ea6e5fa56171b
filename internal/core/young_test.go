package core_test

import (
	"testing"
	"time"

	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/core"
)

func TestYoungAutoInterval(t *testing.T) {
	rt := newRT(t, 4)
	eng, err := chaos.New(rt, chaos.MustParse("kill(iter=10,place=3)"))
	if err != nil {
		t.Fatal(err)
	}
	exec, err := core.New(rt,
		// No fixed interval: Young's formula drives the schedule. A short
		// MTTF forces frequent checkpoints so the run exercises the
		// recalibration path.
		core.WithMTTF(50*time.Millisecond),
		core.WithRestoreMode(core.Shrink),
		core.WithChaos(eng),
	)
	if err != nil {
		t.Fatal(err)
	}
	app := newCounterApp(t, rt, exec.ActiveGroup(), 16, 20)
	if err := exec.Run(app); err != nil {
		t.Fatal(err)
	}
	verify(t, app)
	m := exec.Metrics()
	if m.Checkpoints < 1 {
		t.Fatal("no checkpoints taken in auto mode")
	}
	if m.Restores != 1 {
		t.Fatalf("Restores = %d", m.Restores)
	}
	if exec.AutoInterval() < 1 {
		t.Fatalf("AutoInterval = %d", exec.AutoInterval())
	}
}

func TestYoungAutoIntervalGrowsWithMTTF(t *testing.T) {
	// With an enormous MTTF the optimal interval is huge: after the
	// initial checkpoint the executor should not checkpoint again.
	rt := newRT(t, 3)
	exec, err := core.New(rt, core.WithMTTF(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	app := newCounterApp(t, rt, exec.ActiveGroup(), 9, 25)
	if err := exec.Run(app); err != nil {
		t.Fatal(err)
	}
	if got := exec.Metrics().Checkpoints; got != 1 {
		t.Fatalf("Checkpoints = %d, want only the initial one", got)
	}
	if exec.AutoInterval() <= 25 {
		t.Fatalf("AutoInterval = %d, expected far beyond the run length", exec.AutoInterval())
	}
}
