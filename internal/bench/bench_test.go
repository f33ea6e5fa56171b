package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/rgml/rgml/internal/codec"
)

// smokeConfig is a fast harness configuration for tests (no simulated
// latency, tiny workloads).
func smokeConfig() Config {
	return Config{Scale: SmokeScale()}
}

func TestFinishOverheadFigureSmoke(t *testing.T) {
	for _, app := range Apps {
		app := app
		t.Run(string(app), func(t *testing.T) {
			fig, err := smokeConfig().FinishOverheadFigure(app)
			if err != nil {
				t.Fatal(err)
			}
			if len(fig.Series) != 2 {
				t.Fatalf("series = %d", len(fig.Series))
			}
			for _, s := range fig.Series {
				if len(s.Points) != 2 {
					t.Fatalf("points = %d", len(s.Points))
				}
				for _, p := range s.Points {
					if p.Mean <= 0 || p.Min > p.Mean || p.Max < p.Mean {
						t.Fatalf("bad point %+v", p)
					}
				}
			}
			var buf bytes.Buffer
			if err := WriteFigure(&buf, fig); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "places") {
				t.Error("render missing header")
			}
		})
	}
}

func TestRestoreFigureSmoke(t *testing.T) {
	fig, err := smokeConfig().RestoreFigure(PageRank)
	if err != nil {
		t.Fatal(err)
	}
	// 3 modes + baseline.
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Fatalf("%s: points = %d", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Mean <= 0 {
				t.Fatalf("%s: bad point %+v", s.Name, p)
			}
		}
	}
	// The failure runs must cost at least as much as... they include
	// checkpoint+restore, so they should exceed the baseline.
	base := fig.Series[3].Points[0].Mean
	for si := 0; si < 3; si++ {
		if fig.Series[si].Points[0].Mean < base {
			t.Logf("warning: mode %s cheaper than baseline (noise at smoke scale)", fig.Series[si].Name)
		}
	}
	var buf bytes.Buffer
	if err := WriteFigure(&buf, fig); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointTableSmoke(t *testing.T) {
	rows, err := smokeConfig().CheckpointTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, app := range Apps {
			if r.MeanMS[app] <= 0 {
				t.Fatalf("places %d app %s: zero checkpoint time", r.Places, app)
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteCheckpointTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestPercentTableSmoke(t *testing.T) {
	rows, err := smokeConfig().PercentTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Pct) != 3 {
			t.Fatalf("modes = %d", len(r.Pct))
		}
		for mode, cr := range r.Pct {
			if cr[0] < 0 || cr[0] > 100 || cr[1] < 0 || cr[1] > 100 {
				t.Fatalf("%s %s: bad percentages C=%v R=%v", r.App, mode, cr[0], cr[1])
			}
		}
	}
	var buf bytes.Buffer
	if err := WritePercentTable(&buf, rows, 4); err != nil {
		t.Fatal(err)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{4}, 4},
		{[]float64{7, 1, 3}, 3},
		{[]float64{5, 1, 2, 9}, 3.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median = %v, want %v", got, tc.want)
		}
	}
}

func TestLOCTable(t *testing.T) {
	rows, err := LOCTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's Table II core claim: the resilient version adds only
		// a modest amount of code — the checkpoint and restore methods —
		// on top of the non-resilient program.
		if r.ResilientTotal <= r.NonResilientTotal {
			t.Errorf("%s: resilient (%d) should exceed non-resilient (%d)",
				r.App, r.ResilientTotal, r.NonResilientTotal)
		}
		if r.CheckpointLOC <= 0 || r.RestoreLOC <= 0 || r.IsFinishedLOC <= 0 {
			t.Errorf("%s: zero method LOC: %+v", r.App, r)
		}
		added := r.ResilientTotal - r.NonResilientTotal
		if added > r.NonResilientTotal {
			t.Errorf("%s: resilience added %d lines, more than the whole program", r.App, added)
		}
	}
	var buf bytes.Buffer
	if err := WriteLOCTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LinReg") {
		t.Error("render missing app names")
	}
}

func TestLedgerCostHook(t *testing.T) {
	c := Config{LedgerWork: 10}
	fn := c.ledgerCost()
	if fn == nil {
		t.Fatal("ledgerCost nil with work set")
	}
	fn(3) // must not panic
	c.LedgerWork = 0
	if c.ledgerCost() != nil {
		t.Fatal("ledgerCost should be nil with zero work")
	}
}

func TestNewRuntimeRespectsResilience(t *testing.T) {
	c := smokeConfig()
	rt, err := c.newRuntime(2, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if !rt.Resilient() {
		t.Error("expected resilient runtime")
	}
	nrt, err := c.newRuntime(2, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nrt.Shutdown()
	if nrt.Resilient() {
		t.Error("expected non-resilient runtime")
	}
}

// TestRunMetaRecordsConfiguration: every report's environment block
// carries the active finish/store/transport/compression configuration,
// so a chaos report is self-describing.
func TestRunMetaRecordsConfiguration(t *testing.T) {
	c := smokeConfig()
	meta := c.runMeta()
	for k, want := range map[string]string{
		"finish":      "central",
		"store":       "replicate(k=2) [default]",
		"transport":   "local",
		"compression": "none",
	} {
		if got := meta[k]; got != want {
			t.Errorf("runMeta[%q] = %q, want %q", k, got, want)
		}
	}
	c.Compress = codec.Spec{Mode: codec.CompressLossless}
	c.TransportName = "tcp"
	meta = c.runMeta()
	if meta["compression"] != "lossless" || meta["transport"] != "tcp" {
		t.Errorf("runMeta did not pick up overrides: %v", meta)
	}
	if !strings.Contains(meta["go"], "go") {
		t.Errorf("runMeta go version missing: %v", meta["go"])
	}
}
