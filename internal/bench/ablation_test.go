package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestAblationsSmoke(t *testing.T) {
	c := smokeConfig()
	c.LedgerWork = 10
	c.Scale.Runs = 2
	rows, err := c.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	// 5 + 2 + 2 + 2 variants.
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]float64{}
	for _, r := range rows {
		if r.MS < 0 {
			t.Fatalf("negative measurement: %+v", r)
		}
		byKey[r.Experiment+"/"+r.Variant] = r.MS
	}
	// Structural expectations that hold even at smoke scale: the re-grid
	// restore does strictly more work than the same-grid restore.
	if byKey["regrid-sparse/re-grid"] < byKey["regrid-sparse/same-grid"] {
		t.Log("warning: re-grid measured cheaper than same-grid (noise at smoke scale)")
	}
	var buf bytes.Buffer
	if err := WriteAblations(&buf, rows, c.Scale.Runs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ledger-cost") {
		t.Error("render missing experiment names")
	}
	if !strings.Contains(buf.String(), "median of 2 interleaved runs") {
		t.Error("render missing the run count")
	}
}
