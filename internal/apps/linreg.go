package apps

import (
	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/dist"
)

// LinReg is the resilient LinReg application: the plain program plus the
// checkpoint and restore of its CG state w, r and p (paper section V-A2).
// The scalar rsOld is recomputed from r after a restore.
type LinReg struct{ LinRegNonResilient }

// NewLinReg builds the LinReg application over pg (see
// NewLinRegNonResilient).
func NewLinReg(rt *apgas.Runtime, cfg LinRegConfig, pg apgas.PlaceGroup) (*LinReg, error) {
	non, err := NewLinRegNonResilient(rt, cfg, pg)
	if err != nil {
		return nil, err
	}
	a := &LinReg{*non}
	// Only the model w tolerates an error-bounded lossy checkpoint: CG
	// re-converges from a perturbed w. The residual r and the direction p
	// carry CG's recurrence, which independently perturbed copies break
	// (p loses its conjugacy), so they stay lossless under any policy, as
	// do the read-only inputs X and y.
	a.w.AllowLossyCheckpoint(true)
	return a, nil
}

// Checkpoint implements core.IterativeApp.
func (a *LinReg) Checkpoint(store *core.AppResilientStore) error {
	if err := store.StartNewSnapshot(); err != nil {
		return err
	}
	if a.cfg.CheckpointInputs {
		if err := store.Save(a.x); err != nil {
			return err
		}
		if err := store.Save(a.y); err != nil {
			return err
		}
	} else {
		if err := store.SaveReadOnly(a.x); err != nil {
			return err
		}
		if err := store.SaveReadOnly(a.y); err != nil {
			return err
		}
	}
	for _, obj := range []*dist.DupVector{a.w, a.r, a.p} {
		if err := store.Save(obj); err != nil {
			return err
		}
	}
	return store.Commit()
}

// Restore implements core.IterativeApp.
func (a *LinReg) Restore(newPG apgas.PlaceGroup, store *core.AppResilientStore, snapshotIter int64, rebalance bool) error {
	if err := a.x.Remake(newPG, !rebalance); err != nil {
		return err
	}
	if err := a.y.Remake(newPG); err != nil {
		return err
	}
	for _, dv := range []*dist.DupVector{a.w, a.r, a.p, a.q} {
		if err := dv.Remake(newPG); err != nil {
			return err
		}
	}
	if err := a.xp.Remake(newPG); err != nil {
		return err
	}
	if err := store.Restore(); err != nil {
		return err
	}
	// rsOld is derived state: recompute it from the restored residual.
	var err error
	if a.rsOld, err = a.r.Dot(a.r); err != nil {
		return err
	}
	a.iter = snapshotIter
	return nil
}
