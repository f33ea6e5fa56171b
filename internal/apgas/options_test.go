package apgas

import (
	"errors"
	"strings"
	"testing"

	"github.com/rgml/rgml/internal/codec"
)

func TestWithFinishModeRejectsUnknown(t *testing.T) {
	rt, err := New(WithPlaces(2), WithResilient(true), WithFinishMode(FinishMode(42)))
	if err == nil {
		rt.Shutdown()
		t.Fatal("unknown finish mode accepted")
	}
	if !errors.Is(err, ErrBadOption) {
		t.Fatalf("error %v does not wrap ErrBadOption", err)
	}
}

func TestFirstOptionErrorWins(t *testing.T) {
	// Two bad options: the surfaced error is the first one recorded, and
	// later valid options do not launder it away.
	_, err := New(
		WithPlaces(2),
		WithFinishMode(FinishMode(9)),
		WithTransport(nil),
		WithResilient(true),
	)
	if err == nil {
		t.Fatal("construction with bad options succeeded")
	}
	if !errors.Is(err, ErrBadOption) || !strings.Contains(err.Error(), "WithFinishMode") {
		t.Fatalf("error %v is not the first bad option's ErrBadOption", err)
	}
}

func TestWithStorePolicyValidation(t *testing.T) {
	if _, err := New(WithPlaces(2), WithStorePolicy(StorePolicy{Placement: PlacementReplicate, Replicas: -1})); !errors.Is(err, ErrBadOption) {
		t.Fatalf("negative replicas: err=%v, want ErrBadOption", err)
	}
	if _, err := New(WithPlaces(2), WithStorePolicy(ErasureStore(200, 100))); !errors.Is(err, ErrBadOption) {
		t.Fatalf("d+p>255: err=%v, want ErrBadOption", err)
	}
	if _, err := New(WithPlaces(2), WithStorePolicy(StorePolicy{Placement: Placement(7)})); !errors.Is(err, ErrBadOption) {
		t.Fatalf("unknown placement: err=%v, want ErrBadOption", err)
	}
	rt, err := New(WithPlaces(2), WithStorePolicy(ReplicateStore(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if got := rt.StorePolicy(); got.Replicas != 3 || got.Placement != PlacementReplicate {
		t.Fatalf("StorePolicy() = %+v", got)
	}
}

func TestWithCompressionValidation(t *testing.T) {
	for _, spec := range []codec.Spec{
		{Mode: codec.CompressLossy, ErrorBound: -1},
		{Mode: codec.CompressLossless, ErrorBound: 1e-3},
		{Mode: codec.Compression(9)},
	} {
		if _, err := New(WithPlaces(2), WithCompression(spec)); !errors.Is(err, ErrBadOption) {
			t.Fatalf("WithCompression(%+v): err=%v, want ErrBadOption", spec, err)
		}
	}
	rt, err := New(WithPlaces(2), WithCompression(codec.Spec{Mode: codec.CompressLossy, ErrorBound: 1e-6}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if got := rt.Compression(); got.Mode != codec.CompressLossy || got.ErrorBound != 1e-6 {
		t.Fatalf("Compression() = %+v", got)
	}
}

func TestStorePolicyDefaultsAndStrings(t *testing.T) {
	var zero StorePolicy
	if !zero.IsZero() {
		t.Fatal("zero policy not IsZero")
	}
	if got := zero.Normalized(); got.Replicas != 2 {
		t.Fatalf("zero policy normalizes to k=%d, want 2", got.Replicas)
	}
	if got := ErasureStore(0, 0).Normalized(); got.DataShards != 4 || got.ParityShards != 1 {
		t.Fatalf("erasure defaults = d%d p%d, want d4 p1", got.DataShards, got.ParityShards)
	}
	if s := ReplicateStore(3).String(); s != "replicate(k=3)" {
		t.Fatalf("String() = %q", s)
	}
	if s := ErasureStore(2, 2).String(); s != "erasure(d=2,p=2)" {
		t.Fatalf("String() = %q", s)
	}
	if got := ErasureStore(2, 2).Tolerance(); got != 2 {
		t.Fatalf("Tolerance() = %d, want 2", got)
	}
	if got := ReplicateStore(3).Width(); got != 3 {
		t.Fatalf("Width() = %d, want 3", got)
	}
	if p, err := ParsePlacement("erasure"); err != nil || p != PlacementErasure {
		t.Fatalf("ParsePlacement(erasure) = %v, %v", p, err)
	}
	if _, err := ParsePlacement("bogus"); !errors.Is(err, ErrBadOption) {
		t.Fatalf("ParsePlacement(bogus): err=%v, want ErrBadOption", err)
	}
}
