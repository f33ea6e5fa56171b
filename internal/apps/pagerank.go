package apps

import (
	"math"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/core"
)

// PageRank is the resilient PageRank application: the plain program
// (paper Listing 2) plus the checkpoint/restore methods of Listing 5. G
// and U never change and are checkpointed with SaveReadOnly.
type PageRank struct{ PageRankNonResilient }

// NewPageRank builds the PageRank application over pg (see
// NewPageRankNonResilient).
func NewPageRank(rt *apgas.Runtime, cfg PageRankConfig, pg apgas.PlaceGroup) (*PageRank, error) {
	non, err := NewPageRankNonResilient(rt, cfg, pg)
	if err != nil {
		return nil, err
	}
	a := &PageRank{*non}
	// The rank vector is mutable state the power iteration re-converges
	// from, so it tolerates error-bounded lossy checkpoints; G and U
	// stay lossless under any policy.
	a.p.AllowLossyCheckpoint(true)
	return a, nil
}

// Checkpoint implements core.IterativeApp (paper Listing 5, lines 3-7).
func (a *PageRank) Checkpoint(store *core.AppResilientStore) error {
	if err := store.StartNewSnapshot(); err != nil {
		return err
	}
	if err := store.SaveReadOnly(a.g); err != nil {
		return err
	}
	if err := store.SaveReadOnly(a.u); err != nil {
		return err
	}
	if err := store.Save(a.p); err != nil {
		return err
	}
	return store.Commit()
}

// Restore implements core.IterativeApp (paper Listing 5, lines 9-14).
func (a *PageRank) Restore(newPG apgas.PlaceGroup, store *core.AppResilientStore, snapshotIter int64, rebalance bool) error {
	if err := a.g.Remake(newPG, !rebalance); err != nil {
		return err
	}
	if err := a.u.Remake(newPG); err != nil {
		return err
	}
	if err := a.p.Remake(newPG); err != nil {
		return err
	}
	if err := a.gp.Remake(newPG); err != nil {
		return err
	}
	if err := store.Restore(); err != nil {
		return err
	}
	// lastDelta described the pre-failure trajectory; replay recomputes it.
	a.lastDelta = math.Inf(1)
	a.iter = snapshotIter
	return nil
}
