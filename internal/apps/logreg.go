package apps

import (
	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/core"
)

// LogReg is the resilient LogReg application: the plain program plus the
// checkpoint and restore of its model w (paper section V-A2).
type LogReg struct{ LogRegNonResilient }

// NewLogReg builds the LogReg application over pg (see
// NewLogRegNonResilient).
func NewLogReg(rt *apgas.Runtime, cfg LogRegConfig, pg apgas.PlaceGroup) (*LogReg, error) {
	non, err := NewLogRegNonResilient(rt, cfg, pg)
	if err != nil {
		return nil, err
	}
	a := &LogReg{*non}
	// The model is mutable state gradient descent re-converges from, so
	// it tolerates error-bounded lossy checkpoints; the read-only inputs
	// X and y stay lossless under any policy.
	a.w.AllowLossyCheckpoint(true)
	return a, nil
}

// Checkpoint implements core.IterativeApp.
func (a *LogReg) Checkpoint(store *core.AppResilientStore) error {
	if err := store.StartNewSnapshot(); err != nil {
		return err
	}
	if err := store.SaveReadOnly(a.x); err != nil {
		return err
	}
	if err := store.SaveReadOnly(a.yb); err != nil {
		return err
	}
	if err := store.Save(a.w); err != nil {
		return err
	}
	return store.Commit()
}

// Restore implements core.IterativeApp.
func (a *LogReg) Restore(newPG apgas.PlaceGroup, store *core.AppResilientStore, snapshotIter int64, rebalance bool) error {
	a.fresh = false
	if err := a.x.Remake(newPG, !rebalance); err != nil {
		return err
	}
	if err := a.yb.Remake(newPG); err != nil {
		return err
	}
	if err := a.w.Remake(newPG); err != nil {
		return err
	}
	if err := a.grad.Remake(newPG); err != nil {
		return err
	}
	if err := a.s.Remake(newPG); err != nil {
		return err
	}
	if err := store.Restore(); err != nil {
		return err
	}
	a.iter = snapshotIter
	return nil
}
