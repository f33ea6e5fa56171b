package apps

import (
	"fmt"
	"math"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/dist"
	"github.com/rgml/rgml/internal/la"
)

// LinRegConfig parameterizes the Linear Regression benchmark (the paper
// trains 500 features over 50 000 examples per place, weak scaling).
type LinRegConfig struct {
	// Examples (N) and Features (D) size the dense design matrix.
	Examples, Features int
	// Lambda is the L2 regularization weight.
	Lambda float64
	// Iterations is the fixed CG iteration count (the paper runs 30).
	Iterations int
	// Tolerance, when positive, stops CG as soon as the residual norm
	// ‖r‖ drops below it (in addition to the Iterations cap), turning
	// the run into an iterations-to-converge measurement — the quantity
	// lossy checkpointing trades checkpoint bytes against.
	Tolerance float64
	// Seed selects the synthetic training set.
	Seed uint64
	// RowBlocksPerPlace sets the data-grid granularity.
	RowBlocksPerPlace int
	// CheckpointInputs saves the (immutable) training data X and y with
	// plain Save on every checkpoint instead of the one-time SaveReadOnly.
	// Pointless in production, but it is how a benchmark measures what
	// SaveReadOnly saves: the cost of re-encoding and re-shipping
	// unchanged inputs at every checkpoint.
	CheckpointInputs bool
}

func (c *LinRegConfig) setDefaults() {
	if c.Lambda == 0 {
		c.Lambda = 1e-6
	}
	if c.RowBlocksPerPlace == 0 {
		c.RowBlocksPerPlace = 1
	}
}

// LinRegNonResilient is the plain program — the "non-resilient" column of
// Table II and the baseline of Figures 2 and 5 — that trains a linear
// regression model by conjugate gradient on the normal equations
// (XᵀX + λI)·w = Xᵀy, the GML LinReg benchmark. The training examples X
// (a dense DistBlockMatrix) and the labels y are read-only; the CG state
// — the model w, the residual r and the search direction p, all
// duplicated vectors — is what LinReg checkpoints.
type LinRegNonResilient struct {
	cfg  LinRegConfig
	iter int64

	x *dist.DistBlockMatrix // N×D training examples (read-only)
	y *dist.DistVector      // N labels (read-only)
	w *dist.DupVector       // model (mutable)
	r *dist.DupVector       // CG residual (mutable)
	p *dist.DupVector       // CG direction (mutable)

	xp    *dist.DistVector // temporary: X·p
	q     *dist.DupVector  // temporary: Xᵀ(X·p) + λp
	rsOld float64
}

// NewLinRegNonResilient builds the LinReg program over pg, generating the
// training set deterministically from cfg.Seed and initializing the CG
// state.
func NewLinRegNonResilient(rt *apgas.Runtime, cfg LinRegConfig, pg apgas.PlaceGroup) (*LinRegNonResilient, error) {
	cfg.setDefaults()
	a := &LinRegNonResilient{cfg: cfg}
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
	// CG start: w = 0, r = Xᵀy (the initial residual), p = r.
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

// IsFinished implements core.IterativeApp: the fixed iteration cap, an
// exactly zero residual (see Step), or residual convergence when
// cfg.Tolerance is set.
func (a *LinRegNonResilient) IsFinished() bool {
	if a.iter >= int64(a.cfg.Iterations) || a.rsOld == 0 {
		return true
	}
	return a.cfg.Tolerance > 0 && math.Sqrt(a.rsOld) <= a.cfg.Tolerance
}

// Step implements core.IterativeApp: one CG iteration.
func (a *LinRegNonResilient) Step() error {
	// q = Xᵀ(X·p) + λp.
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
		// p has vanished: CG has converged to working precision, and
		// alpha would be 0/0. Stop here (IsFinished) with w intact.
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

// Weights returns the current model.
func (a *LinRegNonResilient) Weights() (la.Vector, error) { return a.w.Root() }
