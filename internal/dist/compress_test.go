package dist

import (
	"bytes"
	"math"
	"testing"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
)

var (
	losslessSpec = codec.Spec{Mode: codec.CompressLossless}
	lossySpec    = codec.Spec{Mode: codec.CompressLossy, ErrorBound: 1e-6}
)

// newCompressedRT is newRT with a runtime-wide compression policy.
func newCompressedRT(t *testing.T, places int, spec codec.Spec, extra ...apgas.Option) (*apgas.Runtime, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	opts := append([]apgas.Option{
		apgas.WithPlaces(places),
		apgas.WithResilient(true),
		apgas.WithObs(reg),
		apgas.WithCompression(spec),
	}, extra...)
	rt, err := apgas.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt, reg
}

// TestCompressMetaRoundTrip pins the descriptor header format: every
// mode, none included, round-trips through split with the object meta
// after it untouched, and a truncated or contradictory header is rejected
// rather than misread as object metadata.
func TestCompressMetaRoundTrip(t *testing.T) {
	objMeta := codec.AppendInt(codec.AppendInt(nil, 12), 4) // plausible object meta
	for _, spec := range []codec.Spec{{}, losslessSpec, lossySpec} {
		header := appendCompressMeta(nil, spec)
		got, rest, err := splitCompressMeta(append(header, objMeta...))
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		if got != spec {
			t.Fatalf("spec round-trip: got %+v, want %+v", got, spec)
		}
		if !bytes.Equal(rest, objMeta) {
			t.Fatalf("%v: object meta mangled: %x", spec, rest)
		}
		for cut := 0; cut < len(header); cut++ {
			if _, _, err := splitCompressMeta(header[:cut]); err == nil {
				t.Fatalf("%v: truncated header (%d bytes) accepted", spec, cut)
			}
		}
	}
	// An error bound on mode none is contradictory.
	if _, _, err := splitCompressMeta(appendCompressMeta(nil, codec.Spec{ErrorBound: 1})); err == nil {
		t.Fatal("mode-none header with an error bound accepted")
	}
}

// TestSnapshotCompressionPerClass runs snapshot → scribble → restore for
// each distributed class under both compression modes. Lossless must be
// bit-exact; lossy (opted in) must stay within the error bound; lossy
// without the per-object opt-in silently degrades to lossless and stays
// bit-exact.
func TestSnapshotCompressionPerClass(t *testing.T) {
	type variant struct {
		name    string
		spec    codec.Spec
		optIn   bool
		withinE float64 // 0 means bit-exact required
	}
	variants := []variant{
		{"lossless", losslessSpec, false, 0},
		{"lossyOptIn", lossySpec, true, lossySpec.ErrorBound},
		{"lossyNoOptIn", lossySpec, false, 0},
	}
	for _, v := range variants {
		t.Run("DupVector/"+v.name, func(t *testing.T) {
			rt, _ := newCompressedRT(t, 3, v.spec)
			dv, err := MakeDupVector(rt, 300, rt.World())
			if err != nil {
				t.Fatal(err)
			}
			dv.AllowLossyCheckpoint(v.optIn)
			if err := dv.Init(func(i int) float64 { return math.Sin(float64(i)) }); err != nil {
				t.Fatal(err)
			}
			want := readDupAt(t, dv, 0)
			s, err := dv.MakeSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Destroy()
			if err := dv.AllApply(func(local la.Vector) { local.Fill(-7) }); err != nil {
				t.Fatal(err)
			}
			if err := dv.RestoreSnapshot(s); err != nil {
				t.Fatal(err)
			}
			for idx := 0; idx < 3; idx++ {
				checkVector(t, readDupAt(t, dv, idx), want, v.withinE)
			}
		})
		t.Run("DistVector/"+v.name, func(t *testing.T) {
			rt, _ := newCompressedRT(t, 3, v.spec)
			dv, err := MakeDistVector(rt, 301, rt.World())
			if err != nil {
				t.Fatal(err)
			}
			dv.AllowLossyCheckpoint(v.optIn)
			if err := dv.Init(func(i int) float64 { return math.Cos(float64(i) / 3) }); err != nil {
				t.Fatal(err)
			}
			want, err := dv.ToVector()
			if err != nil {
				t.Fatal(err)
			}
			s, err := dv.MakeSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Destroy()
			if err := dv.Scale(0); err != nil {
				t.Fatal(err)
			}
			if err := dv.RestoreSnapshot(s); err != nil {
				t.Fatal(err)
			}
			got, err := dv.ToVector()
			if err != nil {
				t.Fatal(err)
			}
			checkVector(t, got, want, v.withinE)
		})
		for _, kind := range []block.Kind{block.Dense, block.Sparse} {
			kname := "Dense"
			if kind == block.Sparse {
				kname = "Sparse"
			}
			t.Run("DistBlockMatrix"+kname+"/"+v.name, func(t *testing.T) {
				rt, _ := newCompressedRT(t, 4, v.spec)
				m, err := MakeDistBlockMatrix(rt, kind, 24, 24, 2, 2, 2, 2, rt.World())
				if err != nil {
					t.Fatal(err)
				}
				m.AllowLossyCheckpoint(v.optIn)
				if kind == block.Dense {
					err = m.InitDense(func(i, j int) float64 { return math.Sin(float64(3*i + j)) })
				} else {
					err = m.InitSparseColumns(func(j int) ([]int, []float64) {
						return []int{j, (j + 7) % 24}, []float64{1 + float64(j)/24, -0.5}
					})
				}
				if err != nil {
					t.Fatal(err)
				}
				want, err := m.ToDense()
				if err != nil {
					t.Fatal(err)
				}
				s, err := m.MakeSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer s.Destroy()
				if err := m.Scale(0); err != nil {
					t.Fatal(err)
				}
				if err := m.RestoreSnapshot(s); err != nil {
					t.Fatal(err)
				}
				got, err := m.ToDense()
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 24; i++ {
					for j := 0; j < 24; j++ {
						g, w := got.At(i, j), want.At(i, j)
						if v.withinE == 0 && g != w {
							t.Fatalf("(%d,%d) = %v, want exactly %v", i, j, g, w)
						}
						if math.Abs(g-w) > v.withinE {
							t.Fatalf("(%d,%d) = %v, want %v within %g", i, j, g, w, v.withinE)
						}
					}
				}
			})
		}
	}
}

// checkVector asserts got equals want bit-exactly (eps 0) or within eps.
func checkVector(t *testing.T, got, want la.Vector, eps float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if eps == 0 {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("element %d = %v, want bit-identical %v", i, got[i], want[i])
			}
		} else if math.Abs(got[i]-want[i]) > eps {
			t.Fatalf("element %d = %v, want %v within %g", i, got[i], want[i], eps)
		}
	}
}

// TestCompressedRoundTrip checks a lossless compressed checkpoint of a
// changed vector saves every fragment again and restores exactly after
// the earlier checkpoint is destroyed.
func TestCompressedRoundTrip(t *testing.T) {
	rt, reg := newCompressedRT(t, 4, losslessSpec)
	v, err := MakeDistVector(rt, 4000, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Init(func(i int) float64 { return math.Sin(float64(i) / 100) }); err != nil {
		t.Fatal(err)
	}
	s1, err := v.MakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Scale(2); err != nil {
		t.Fatal(err)
	}
	s2, err := v.MakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("snapshot.saves").Value(); got != 8 {
		t.Fatalf("snapshot.saves = %d, want 8", got)
	}
	// Compression actually engaged: the traffic counters saw fewer bytes
	// out than in.
	in, out := reg.Counter("snapshot.compress.bytes_in").Value(), reg.Counter("snapshot.compress.bytes_out").Value()
	if in == 0 || out >= in {
		t.Fatalf("compress bytes_out/bytes_in = %d/%d, want a reduction", out, in)
	}
	s1.Destroy()
	defer s2.Destroy()
	if err := v.Scale(0); err != nil {
		t.Fatal(err)
	}
	if err := v.RestoreSnapshot(s2); err != nil {
		t.Fatal(err)
	}
	got, err := v.ToVector()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := 2 * math.Sin(float64(i)/100); got[i] != want {
			t.Fatalf("restored[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// TestCompressedPartialRestoreLossless: under a lossless codec the
// survivor validation still works — the deterministic re-encode of a
// survivor's fragment matches the stored compressed CRC, so survivors
// keep their state and only the replacement loads.
func TestCompressedPartialRestoreLossless(t *testing.T) {
	rt, reg := newCompressedRT(t, 5, losslessSpec)
	pg := apgas.PlaceGroup{rt.Place(0), rt.Place(1), rt.Place(2), rt.Place(3)}
	v, err := MakeDistVector(rt, 2000, pg)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Init(func(i int) float64 { return math.Sin(float64(i) / 10) }); err != nil {
		t.Fatal(err)
	}
	s, err := v.MakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	if err := rt.Kill(rt.Place(1)); err != nil {
		t.Fatal(err)
	}
	newPG := apgas.PlaceGroup{rt.Place(0), rt.Place(4), rt.Place(2), rt.Place(3)}
	if err := v.Remake(newPG); err != nil {
		t.Fatal(err)
	}
	if err := v.RestoreSnapshot(s); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("dist.restore.partial.kept").Value(); got != 3 {
		t.Errorf("partial.kept = %d, want 3", got)
	}
	if got := reg.Counter("dist.restore.partial.loaded").Value(); got != 1 {
		t.Errorf("partial.loaded = %d, want 1", got)
	}
	got, err := v.ToVector()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := math.Sin(float64(i) / 10); got[i] != want {
			t.Fatalf("restored[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// TestCompressedPartialRestoreLossyReloadsAll: a lossy codec cannot
// content-validate survivors (any state in the same quantization bucket
// re-encodes identically), so the partial restore must reject retained
// fragments and reload every place from the checkpoint — otherwise a
// rollback could keep post-checkpoint survivor state (the bug the
// compress benchmark originally exposed).
func TestCompressedPartialRestoreLossyReloadsAll(t *testing.T) {
	rt, reg := newCompressedRT(t, 5, lossySpec)
	pg := apgas.PlaceGroup{rt.Place(0), rt.Place(1), rt.Place(2), rt.Place(3)}
	v, err := MakeDistVector(rt, 2000, pg)
	if err != nil {
		t.Fatal(err)
	}
	v.AllowLossyCheckpoint(true)
	if err := v.Init(func(i int) float64 { return math.Sin(float64(i) / 10) }); err != nil {
		t.Fatal(err)
	}
	s, err := v.MakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	// Survivors advance beyond the checkpoint — but by less than the
	// quantization bucket, the adversarial case for content validation.
	err = v.ApplyLocal(func(seg la.Vector, off int) {
		for i := range seg {
			seg[i] += 1e-9
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Kill(rt.Place(1)); err != nil {
		t.Fatal(err)
	}
	newPG := apgas.PlaceGroup{rt.Place(0), rt.Place(4), rt.Place(2), rt.Place(3)}
	if err := v.Remake(newPG); err != nil {
		t.Fatal(err)
	}
	if err := v.RestoreSnapshot(s); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("dist.restore.partial.kept").Value(); got != 0 {
		t.Errorf("partial.kept = %d, want 0 under a lossy codec", got)
	}
	if got := reg.Counter("dist.restore.partial.loaded").Value(); got != 4 {
		t.Errorf("partial.loaded = %d, want 4 under a lossy codec", got)
	}
	got, err := v.ToVector()
	if err != nil {
		t.Fatal(err)
	}
	// Every element is the checkpointed value up to the bound — not the
	// survivors' advanced value, which would show as a consistent +1e-9
	// only on kept segments.
	for i := range got {
		if want := math.Sin(float64(i) / 10); math.Abs(got[i]-want) > lossySpec.ErrorBound {
			t.Fatalf("restored[%d] = %v, want %v within %g", i, got[i], want, lossySpec.ErrorBound)
		}
	}
}

// TestCompressedErasureRestore composes compression with Reed-Solomon
// snapshot placement: the shards are cut from compressed frames, a place
// loss stays within the parity budget, and the restore is bit-exact.
func TestCompressedErasureRestore(t *testing.T) {
	rt, _ := newCompressedRT(t, 5, losslessSpec, apgas.WithStorePolicy(apgas.ErasureStore(3, 2)))
	v, err := MakeDupVector(rt, 500, rt.World())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Init(func(i int) float64 { return math.Sin(float64(i) / 7) }); err != nil {
		t.Fatal(err)
	}
	want := readDupAt(t, v, 0)
	s, err := v.MakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Destroy()
	if err := rt.Kill(rt.Place(2)); err != nil {
		t.Fatal(err)
	}
	if err := v.Remake(rt.World()); err != nil {
		t.Fatal(err)
	}
	if err := v.RestoreSnapshot(s); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < rt.World().Size(); idx++ {
		checkVector(t, readDupAt(t, v, idx), want, 0)
	}
}
