package local

import (
	"testing"

	"github.com/rgml/rgml/internal/apgas/transport"
)

func TestZeroValueAndNoOps(t *testing.T) {
	tr := New()
	if tr.Name() != "local" {
		t.Fatalf("Name() = %q", tr.Name())
	}
	if err := tr.Start(4, transport.Handler{}); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if d, err := tr.Send(0, 1, transport.ClassControl, 64, nil); err != nil || d != 0 {
		t.Fatalf("Send = %v, %v; want 0, nil", d, err)
	}
	if err := tr.Kill(1); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if err := tr.Grow(3); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestIntraPlaceSendFree(t *testing.T) {
	tr := New()
	for c := 0; c < transport.NumClasses; c++ {
		if d, err := tr.Send(2, 2, transport.Class(c), 1<<20, nil); err != nil || d != 0 {
			t.Fatalf("Send(2,2,%v) = %v, %v; want 0, nil", transport.Class(c), d, err)
		}
	}
}
