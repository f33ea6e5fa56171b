package dist

import (
	"fmt"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
)

// benchBlockMatrix builds the benchmark workload: a 1024x1024 matrix cut
// into four 512x512 blocks over four places (one block per place), the
// "dense 512x512 block set" checkpoint target of the checkpoint fast-path
// work. Sparse uses the same geometry with ~1% density. Extra options
// configure the runtime (e.g. its store policy).
func benchBlockMatrix(b *testing.B, kind block.Kind, extra ...apgas.Option) (*apgas.Runtime, *DistBlockMatrix) {
	b.Helper()
	rt, err := apgas.New(append([]apgas.Option{apgas.WithPlaces(4), apgas.WithResilient(true)}, extra...)...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Shutdown)
	m, err := MakeDistBlockMatrix(rt, kind, 1024, 1024, 2, 2, 2, 2, rt.World())
	if err != nil {
		b.Fatal(err)
	}
	if kind == block.Dense {
		err = m.InitDense(func(i, j int) float64 { return float64(i ^ j) })
	} else {
		err = m.InitSparseColumns(func(j int) (rows []int, vals []float64) {
			for i := j % 97; i < 1024; i += 97 {
				rows = append(rows, i)
				vals = append(vals, float64(i+j))
			}
			return rows, vals
		})
	}
	if err != nil {
		b.Fatal(err)
	}
	return rt, m
}

func BenchmarkSnapshotSave(b *testing.B) {
	for _, kind := range []block.Kind{block.Dense, block.Sparse} {
		for _, backup := range []bool{true, false} {
			name := fmt.Sprintf("%s/backup=%v", kind, backup)
			b.Run(name, func(b *testing.B) {
				var opts []apgas.Option
				if !backup {
					opts = append(opts, apgas.WithStorePolicy(apgas.ReplicateStore(1)))
				}
				_, m := benchBlockMatrix(b, kind, opts...)
				payload, err := m.Bytes()
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(payload))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, err := m.MakeSnapshot()
					if err != nil {
						b.Fatal(err)
					}
					s.Destroy()
				}
			})
		}
	}
}

// BenchmarkSnapshotSaveRestore measures the full checkpoint+recover cycle
// on the same-grid path, where load-time CRC verification dominates the
// restore side.
func BenchmarkSnapshotSaveRestore(b *testing.B) {
	_, m := benchBlockMatrix(b, block.Dense)
	payload, err := m.Bytes()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(payload))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := m.MakeSnapshot()
		if err != nil {
			b.Fatal(err)
		}
		if err := m.RestoreSnapshot(s); err != nil {
			b.Fatal(err)
		}
		s.Destroy()
	}
}
