package dist

import (
	"math"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/snapshot"
)

// TestLargeBlockSnapshotIntegrity checks the checkpoint encode end to end
// at sizes that span many encoder chunks: two dense 5000x128 blocks (5 MB
// each) and two sparse blocks whose ColIdx is 1.28 MB each. For every
// block, the digest the snapshot recorded must be the CRC-32C of the
// bytes Load returns; a survivor left as it was is validated and kept by a
// partial restore; and the same survivor with one element moved by one
// ULP — the last element, which lives in the payload's partial last chunk
// — is rejected and reloaded.
func TestLargeBlockSnapshotIntegrity(t *testing.T) {
	const rows, cols = 10000, 128
	rt, reg := newInstrumentedRT(t, 2)

	dense, err := MakeDistBlockMatrix(rt, block.Dense, rows, cols, 2, 1, 2, 1, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	if err := dense.InitDense(func(i, j int) float64 { return math.Sin(float64(i*cols + j)) }); err != nil {
		t.Fatal(err)
	}
	sparse, err := MakeDistBlockMatrix(rt, block.Sparse, rows, cols, 2, 1, 2, 1, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	err = sparse.InitSparseColumns(func(j int) ([]int, []float64) {
		var rs []int
		var vs []float64
		for i := j % 4; i < rows; i += 4 {
			rs = append(rs, i)
			vs = append(vs, float64(i)+float64(j)/1e3)
		}
		return rs, vs
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		m    *DistBlockMatrix
		// last returns the block's last payload element.
		last func(b *block.MatrixBlock) *float64
	}{
		{"dense", dense, func(b *block.MatrixBlock) *float64 { return &b.Dense.Data[len(b.Dense.Data)-1] }},
		{"sparse", sparse, func(b *block.MatrixBlock) *float64 { return &b.Sparse.Vals[len(b.Sparse.Vals)-1] }},
	} {
		m := tc.m
		s, err := m.MakeSnapshot()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		err = apgas.ForEachPlace(rt, m.Group(), func(ctx *apgas.Ctx, idx int) {
			m.LocalBlocks(ctx).Each(func(id int, b *block.MatrixBlock) {
				if b.Sparse != nil && len(b.Sparse.ColIdx) <= 1<<20/8 {
					t.Errorf("sparse block %d has %d nonzeros, want ColIdx over 1 MiB", id, len(b.Sparse.ColIdx))
				}
				sum, size, err := s.Digest(ctx, id, m.dg.PlaceOf[id])
				if err != nil {
					apgas.Throw(err)
				}
				data, err := s.Load(ctx, id, m.dg.PlaceOf[id])
				if err != nil {
					apgas.Throw(err)
				}
				if size != len(data) || size != b.EncodedSize() || sum != codec.Checksum(data) {
					t.Errorf("%s block %d: digest (%#x, %d B), loaded bytes (%#x, %d B), encoded size %d",
						tc.name, id, sum, size, codec.Checksum(data), len(data), b.EncodedSize())
				}
			})
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}

		// markRetained flags every block as a survivor and, on place 0,
		// applies mutate to its block first.
		markRetained := func(mutate func(b *block.MatrixBlock)) {
			t.Helper()
			err := apgas.ForEachPlace(rt, m.Group(), func(ctx *apgas.Ctx, idx int) {
				m.LocalBlocks(ctx).Each(func(id int, b *block.MatrixBlock) {
					if idx == 0 {
						mutate(b)
					}
					b.Retained = true
				})
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		kept := reg.Counter("dist.restore.partial.kept")
		loaded := reg.Counter("dist.restore.partial.loaded")
		kept0, loaded0 := kept.Value(), loaded.Value()

		markRetained(func(*block.MatrixBlock) {})
		if err := m.RestoreSnapshot(s); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if k, l := kept.Value()-kept0, loaded.Value()-loaded0; k != 2 || l != 0 {
			t.Errorf("%s, unchanged survivors: kept %d, loaded %d; want 2, 0", tc.name, k, l)
		}

		var orig float64
		markRetained(func(b *block.MatrixBlock) {
			v := tc.last(b)
			orig = *v
			*v = math.Nextafter(*v, math.Inf(1))
			b.Touch()
		})
		if err := m.RestoreSnapshot(s); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if k, l := kept.Value()-kept0, loaded.Value()-loaded0; k != 3 || l != 1 {
			t.Errorf("%s, one survivor off by one ULP: kept %d, loaded %d in total; want 3, 1", tc.name, k, l)
		}
		err = apgas.ForEachPlace(rt, m.Group(), func(ctx *apgas.Ctx, idx int) {
			if idx != 0 {
				return
			}
			m.LocalBlocks(ctx).Each(func(id int, b *block.MatrixBlock) {
				if got := *tc.last(b); got != orig {
					t.Errorf("%s: rejected survivor's element = %v after restore, want %v", tc.name, got, orig)
				}
			})
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s.Destroy()
	}
}

// TestRetainedValidationDrawsNoPoolBuffer checks that a survivor's check
// against its checkpoint digest only checksums: every retained dense
// block, CSR block and vector segment validates, no codec pool buffer is
// drawn while they do, and each check is timed into
// dist.restore.validate.
func TestRetainedValidationDrawsNoPoolBuffer(t *testing.T) {
	const rows, cols = 10000, 128
	rt, reg := newInstrumentedRT(t, 2)
	dense, err := MakeDistBlockMatrix(rt, block.Dense, rows, cols, 2, 1, 2, 1, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	if err := dense.InitDense(func(i, j int) float64 { return float64(i) - float64(j)/7 }); err != nil {
		t.Fatal(err)
	}
	sparse, err := MakeDistBlockMatrix(rt, block.Sparse, rows, cols, 2, 1, 2, 1, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	err = sparse.InitSparseColumns(func(j int) ([]int, []float64) {
		return []int{j, j + cols}, []float64{float64(j), -float64(j)}
	})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := MakeDistVector(rt, rows, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	if err := vec.Init(func(i int) float64 { return math.Sqrt(float64(i)) }); err != nil {
		t.Fatal(err)
	}
	var snaps []*snapshot.Snapshot
	for _, snap := range []func() (*snapshot.Snapshot, error){dense.MakeSnapshot, sparse.MakeSnapshot, vec.MakeSnapshot} {
		s, err := snap()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Destroy()
		snaps = append(snaps, s)
	}

	validations := reg.Histogram("dist.restore.validate")
	before := validations.Count()
	gets, _, _ := codec.PoolStats()
	err = apgas.ForEachPlace(rt, rt.World(), func(ctx *apgas.Ctx, idx int) {
		for i, m := range []*DistBlockMatrix{dense, sparse} {
			m.LocalBlocks(ctx).Each(func(id int, b *block.MatrixBlock) {
				if !validateRetainedBlock(ctx, snaps[i], id, m.dg.PlaceOf[id], b, nil) {
					t.Errorf("%v block %d at place %d failed validation against its own checkpoint", b.Kind(), id, idx)
				}
			})
		}
		if !validateRetainedVector(ctx, snaps[2], idx, idx, vec.Local(ctx), nil) {
			t.Errorf("vector segment %d failed validation against its own checkpoint", idx)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if g, _, _ := codec.PoolStats(); g != gets {
		t.Errorf("validating survivors drew %d codec pool buffers, want 0", g-gets)
	}
	if n := validations.Count() - before; n != 6 {
		t.Errorf("dist.restore.validate counted %d checks, want 6 (4 blocks, 2 segments)", n)
	}
}
