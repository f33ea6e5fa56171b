package apps

import (
	"hash/fnv"
	"math"
	"testing"

	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/core"
)

// iterateHash folds the bit patterns of every value into one FNV-1a hash.
func iterateHash(vals ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		for _, x := range v {
			bits := math.Float64bits(x)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestSparseAppsFinalIteratePinned pins the final iterates of the two
// sparse applications — PageRank's ranks and GNMF's factors — bit for bit,
// failure-free and across a same-grid (ReplaceRedundant) and a regrid
// (ShrinkRebalance) recovery. The hashes were recorded when sparse blocks
// were still stored column-major, so any drift in the block format, its
// kernels or its restore paths shows up here.
func TestSparseAppsFinalIteratePinned(t *testing.T) {
	type run struct {
		app  string
		mode core.RestoreMode // recovery mode when kill is set
		kill bool             // kill place 2 after iteration 6
		want uint64           // iterateHash of the final iterate
	}
	for _, r := range []run{
		{"pagerank", core.Shrink, false, 0xae71899de50cdb12},
		{"pagerank", core.ReplaceRedundant, true, 0xae71899de50cdb12},
		{"pagerank", core.ShrinkRebalance, true, 0x60672761c20a656a},
		{"gnmf", core.Shrink, false, 0x7c5c6d1d46b6d890},
		{"gnmf", core.ReplaceRedundant, true, 0x7c5c6d1d46b6d890},
		{"gnmf", core.ShrinkRebalance, true, 0x52f10a76bbf02dc2},
	} {
		name := r.app + "/failure-free"
		if r.kill {
			name = r.app + "/" + r.mode.String()
		}
		t.Run(name, func(t *testing.T) {
			rt := newRT(t, 5)
			opts := []core.Option{core.WithCheckpointInterval(4), core.WithRestoreMode(r.mode), core.WithSpares(1)}
			var eng *chaos.Engine
			if r.kill {
				var err error
				if eng, err = chaos.New(rt, chaos.MustParse("kill(iter=6,place=2)")); err != nil {
					t.Fatal(err)
				}
				opts = append(opts, core.WithChaos(eng))
			}
			exec, err := core.New(rt, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var got uint64
			switch r.app {
			case "pagerank":
				app, err := NewPageRank(rt, prCfg(12), exec.ActiveGroup())
				if err != nil {
					t.Fatal(err)
				}
				if err := exec.Run(app); err != nil {
					t.Fatal(err)
				}
				ranks, err := app.Ranks()
				if err != nil {
					t.Fatal(err)
				}
				got = iterateHash(ranks)
			case "gnmf":
				app, err := NewGNMF(rt, gnmfCfg(12), exec.ActiveGroup())
				if err != nil {
					t.Fatal(err)
				}
				if err := exec.Run(app); err != nil {
					t.Fatal(err)
				}
				w, h, err := app.Factors()
				if err != nil {
					t.Fatal(err)
				}
				got = iterateHash(w.Data, h.Data)
			}
			if r.kill && (len(eng.Kills()) != 1 || exec.Metrics().Restores == 0) {
				t.Fatal("failure injection or recovery missing")
			}
			if got != r.want {
				t.Errorf("final iterate hash %016x, want %016x", got, r.want)
			}
		})
	}
}
