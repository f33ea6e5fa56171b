package dist

import (
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
)

// Distributed kernel benchmarks whose PR 4 numbers are frozen in
// results/BENCH_kernels.json: the per-iteration MultVec/TransMultVec pair
// that dominates the LinReg/LogReg/PageRank step time. The gate on them is
// dist.multvec_ms/dist.transmultvec_ms of `bash benchmark/run.sh -micro`.

func benchMatVec(b *testing.B, rows, cols, places int) (*apgas.Runtime, *DistBlockMatrix, *DupVector, *DistVector) {
	b.Helper()
	rt, err := apgas.New(apgas.WithPlaces(places))
	if err != nil {
		b.Fatal(err)
	}
	m, err := MakeDistBlockMatrix(rt, block.Dense, rows, cols, places, 1, places, 1, rt.World())
	if err != nil {
		b.Fatal(err)
	}
	if err := m.InitDense(func(i, j int) float64 {
		return float64((i*31+j*17)%97) / 97
	}); err != nil {
		b.Fatal(err)
	}
	x, err := MakeDupVector(rt, cols, rt.World())
	if err != nil {
		b.Fatal(err)
	}
	if err := x.Init(func(i int) float64 { return float64(i%13) / 13 }); err != nil {
		b.Fatal(err)
	}
	y, err := MakeDistVector(rt, rows, rt.World())
	if err != nil {
		b.Fatal(err)
	}
	return rt, m, x, y
}

func BenchmarkKernelDistMultVec(b *testing.B) {
	const rows, cols, places = 2048, 2048, 4
	rt, m, x, y := benchMatVec(b, rows, cols, places)
	defer rt.Shutdown()
	b.SetBytes(8 * int64(rows*cols))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.MultVec(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelDistTransMultVec(b *testing.B) {
	const rows, cols, places = 2048, 2048, 4
	rt, m, _, y := benchMatVec(b, rows, cols, places)
	defer rt.Shutdown()
	z, err := MakeDupVector(rt, cols, rt.World())
	if err != nil {
		b.Fatal(err)
	}
	if err := y.Init(func(i int) float64 { return float64(i%7) / 7 }); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(8 * int64(rows*cols))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.TransMultVec(y, z); err != nil {
			b.Fatal(err)
		}
	}
}
