package apps

import (
	"fmt"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/dist"
	"github.com/rgml/rgml/internal/la"
)

// LinRegNonResilient is the plain CG linear regression program without
// checkpoint/restore support — the "non-resilient" column of Table II and
// the baseline of Figures 2 and 5.
type LinRegNonResilient struct {
	rt   *apgas.Runtime
	cfg  LinRegConfig
	pg   apgas.PlaceGroup
	iter int64

	x *dist.DistBlockMatrix
	y *dist.DistVector
	w *dist.DupVector
	r *dist.DupVector
	p *dist.DupVector

	xp    *dist.DistVector
	q     *dist.DupVector
	rsOld float64
}

// NewLinRegNonResilient builds the non-resilient LinReg program.
func NewLinRegNonResilient(rt *apgas.Runtime, cfg LinRegConfig, pg apgas.PlaceGroup) (*LinRegNonResilient, error) {
	cfg.setDefaults()
	a := &LinRegNonResilient{rt: rt, cfg: cfg, pg: pg.Clone()}
	n, d := cfg.Examples, cfg.Features
	data := RegressionData{Seed: cfg.Seed, Examples: n, Features: d}
	var err error
	rowBlocks := cfg.RowBlocksPerPlace * pg.Size()
	if a.x, err = dist.MakeDistBlockMatrix(rt, block.Dense, n, d, rowBlocks, 1, pg.Size(), 1, pg); err != nil {
		return nil, fmt.Errorf("apps: linreg X: %w", err)
	}
	if err = a.x.InitDense(data.Feature); err != nil {
		return nil, err
	}
	if a.y, err = dist.MakeDistVector(rt, n, pg); err != nil {
		return nil, err
	}
	if err = a.y.Init(data.Label); err != nil {
		return nil, err
	}
	for _, dv := range []**dist.DupVector{&a.w, &a.r, &a.p, &a.q} {
		if *dv, err = dist.MakeDupVector(rt, d, pg); err != nil {
			return nil, err
		}
	}
	if a.xp, err = dist.MakeDistVector(rt, n, pg); err != nil {
		return nil, err
	}
	if err = a.x.TransMultVec(a.y, a.r); err != nil {
		return nil, err
	}
	if err = a.p.ZipAll(a.r, func(p, r la.Vector) { p.CopyFrom(r) }); err != nil {
		return nil, err
	}
	if a.rsOld, err = a.r.Dot(a.r); err != nil {
		return nil, err
	}
	return a, nil
}

// IsFinished reports whether all iterations have completed or the
// residual is exactly zero (see LinReg.Step).
func (a *LinRegNonResilient) IsFinished() bool {
	return a.iter >= int64(a.cfg.Iterations) || a.rsOld == 0
}

// Step performs one CG iteration (identical to the resilient Step).
func (a *LinRegNonResilient) Step() error {
	if err := a.x.MultVec(a.p, a.xp); err != nil {
		return err
	}
	if err := a.x.TransMultVec(a.xp, a.q); err != nil {
		return err
	}
	lambda := a.cfg.Lambda
	err := a.q.ZipAll(a.p, func(q, p la.Vector) { q.Axpy(lambda, p) })
	if err != nil {
		return err
	}
	pq, err := a.p.Dot(a.q)
	if err != nil {
		return err
	}
	if pq == 0 {
		a.rsOld = 0
		return nil
	}
	alpha := a.rsOld / pq
	if err := a.w.ZipAll(a.p, func(w, p la.Vector) { w.Axpy(alpha, p) }); err != nil {
		return err
	}
	if err := a.r.ZipAll(a.q, func(r, q la.Vector) { r.Axpy(-alpha, q) }); err != nil {
		return err
	}
	rsNew, err := a.r.Dot(a.r)
	if err != nil {
		return err
	}
	beta := rsNew / a.rsOld
	err = a.p.ZipAll(a.r, func(p, r la.Vector) {
		p.Scale(beta).Add(r)
	})
	if err != nil {
		return err
	}
	a.rsOld = rsNew
	a.iter++
	return nil
}

// Run executes the full iteration loop.
func (a *LinRegNonResilient) Run() error {
	for !a.IsFinished() {
		if err := a.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Weights returns the current model.
func (a *LinRegNonResilient) Weights() (la.Vector, error) { return a.w.Root() }
