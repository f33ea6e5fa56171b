package apgas

import (
	"fmt"
	"strings"
)

// Placement selects how the resilient snapshot store places redundancy
// for each entry. It lives in apgas (rather than internal/snapshot)
// because it is runtime-level configuration: distributed objects create
// snapshots against the runtime, and the policy travels with it so every
// snapshot of a run uses the same placement without threading an option
// through each object constructor.
type Placement int

const (
	// PlacementReplicate stores Replicas full copies of each entry at
	// consecutive places of the snapshot group starting at the owner.
	// Replicas=2 is the paper's double in-memory storage (owner plus next
	// place); higher values tolerate Replicas-1 failures between
	// checkpoints at Replicas× storage.
	PlacementReplicate Placement = iota
	// PlacementErasure Reed-Solomon-encodes each entry into DataShards
	// data shards plus ParityShards parity shards at consecutive places
	// of the snapshot group, tolerating ParityShards failures at
	// (DataShards+ParityShards)/DataShards× storage (the ReStore-style
	// cost model).
	PlacementErasure
)

// String renders the placement's flag form.
func (p Placement) String() string {
	switch p {
	case PlacementReplicate:
		return "replicate"
	case PlacementErasure:
		return "erasure"
	}
	return fmt.Sprintf("placement(%d)", int(p))
}

// ParsePlacement parses the -placement flag form.
func ParsePlacement(s string) (Placement, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "replicate", "replica", "copies":
		return PlacementReplicate, nil
	case "erasure", "rs", "reed-solomon":
		return PlacementErasure, nil
	}
	return 0, fmt.Errorf("apgas: unknown placement %q (want replicate or erasure): %w", s, ErrBadOption)
}

// StorePolicy is the snapshot store's redundancy configuration. The zero
// value means "unset": the store applies its paper-faithful default
// (replicate, k=2). A policy wider than a snapshot's place group is
// clamped by the store with a trace event, never a panic, so one policy
// serves groups of every size.
type StorePolicy struct {
	// Placement selects replication vs erasure coding.
	Placement Placement
	// Replicas is the total number of full copies (owner included) under
	// PlacementReplicate. 0 means the default (2); 1 disables redundancy
	// (the ReplicateStore(1) policy).
	Replicas int
	// DataShards and ParityShards set the erasure geometry under
	// PlacementErasure. Zero values mean the defaults (4 and 1).
	DataShards, ParityShards int
}

// ReplicateStore returns a k-copy replication policy.
func ReplicateStore(k int) StorePolicy {
	return StorePolicy{Placement: PlacementReplicate, Replicas: k}
}

// ErasureStore returns a d-data, p-parity erasure policy.
func ErasureStore(d, p int) StorePolicy {
	return StorePolicy{Placement: PlacementErasure, DataShards: d, ParityShards: p}
}

// IsZero reports whether the policy is unset (every field zero), which
// the store reads as "use the default".
func (sp StorePolicy) IsZero() bool { return sp == StorePolicy{} }

// Normalized fills in the documented defaults.
func (sp StorePolicy) Normalized() StorePolicy {
	if sp.Placement == PlacementReplicate && sp.Replicas == 0 {
		sp.Replicas = 2
	}
	if sp.Placement == PlacementErasure {
		if sp.DataShards == 0 {
			sp.DataShards = 4
		}
		if sp.ParityShards == 0 {
			sp.ParityShards = 1
		}
	}
	return sp
}

// Validate reports structural problems: negative counts, erasure sets
// wider than the GF(2^8) code supports, unknown placements.
func (sp StorePolicy) Validate() error {
	switch sp.Placement {
	case PlacementReplicate:
		if sp.Replicas < 0 {
			return fmt.Errorf("apgas: store policy: replicas must be >= 0, got %d: %w", sp.Replicas, ErrBadOption)
		}
	case PlacementErasure:
		if sp.DataShards < 0 || sp.ParityShards < 0 {
			return fmt.Errorf("apgas: store policy: negative shard counts d=%d p=%d: %w", sp.DataShards, sp.ParityShards, ErrBadOption)
		}
		n := sp.Normalized()
		if n.DataShards+n.ParityShards > 255 {
			return fmt.Errorf("apgas: store policy: d+p=%d exceeds 255 (GF(2^8) limit): %w", n.DataShards+n.ParityShards, ErrBadOption)
		}
	default:
		return fmt.Errorf("apgas: store policy: unknown placement %d: %w", int(sp.Placement), ErrBadOption)
	}
	return nil
}

// Width is the number of group places one entry occupies (copies, or
// data+parity shards), after defaults.
func (sp StorePolicy) Width() int {
	n := sp.Normalized()
	if n.Placement == PlacementErasure {
		return n.DataShards + n.ParityShards
	}
	return n.Replicas
}

// Tolerance is the number of place failures an entry survives between
// checkpoints under the policy, after defaults.
func (sp StorePolicy) Tolerance() int {
	n := sp.Normalized()
	if n.Placement == PlacementErasure {
		return n.ParityShards
	}
	return n.Replicas - 1
}

// String renders the policy compactly ("replicate(k=2)", "erasure(d=4,p=1)").
func (sp StorePolicy) String() string {
	n := sp.Normalized()
	if n.Placement == PlacementErasure {
		return fmt.Sprintf("erasure(d=%d,p=%d)", n.DataShards, n.ParityShards)
	}
	return fmt.Sprintf("replicate(k=%d)", n.Replicas)
}

// StorePolicy returns the snapshot-store redundancy policy the runtime
// was configured with (the zero value when unset; the snapshot layer
// applies its default then).
func (rt *Runtime) StorePolicy() StorePolicy { return rt.cfg.Store }
