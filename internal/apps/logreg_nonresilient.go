package apps

import (
	"fmt"
	"math"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/dist"
	"github.com/rgml/rgml/internal/la"
)

// LogRegConfig parameterizes the Logistic Regression benchmark.
type LogRegConfig struct {
	// Examples (N) and Features (D) size the dense design matrix.
	Examples, Features int
	// Eta is the gradient-descent learning rate.
	Eta float64
	// Lambda is the L2 regularization weight.
	Lambda float64
	// Iterations is the fixed iteration count (the paper runs 30).
	Iterations int
	// Seed selects the synthetic training set.
	Seed uint64
	// RowBlocksPerPlace sets the data-grid granularity.
	RowBlocksPerPlace int
}

func (c *LogRegConfig) setDefaults() {
	if c.Eta == 0 {
		c.Eta = 0.5
	}
	if c.Lambda == 0 {
		c.Lambda = 1e-6
	}
	if c.RowBlocksPerPlace == 0 {
		c.RowBlocksPerPlace = 1
	}
}

// LogRegNonResilient is the plain program — the "non-resilient" column of
// Table II and the baseline of Figures 3 and 6 — that trains a binary
// classifier on the logistic loss by gradient descent with per-iteration
// objective evaluation. A steady iteration makes two passes over the
// design matrix: Xᵀ·(σ(s)−y) for the gradient and s = X·w for the
// objective. The objective's scores are the next gradient's scores —
// nothing between two steps changes X, w or s — so only the first step,
// and the first after a restore, computes X·w before its gradient as
// well. X and the labels are read-only; the model w is what LogReg
// checkpoints.
type LogRegNonResilient struct {
	cfg  LogRegConfig
	iter int64
	loss float64

	x  *dist.DistBlockMatrix // N×D training examples (read-only)
	yb *dist.DistVector      // N binary labels (read-only)
	w  *dist.DupVector       // model (mutable)

	s    *dist.DistVector // scores X·w
	grad *dist.DupVector  // temporary: gradient
	// fresh reports that s holds X·w for the current w: set when a
	// step's objective pass completes, cleared when a step starts and by
	// a restore.
	fresh bool
}

// NewLogRegNonResilient builds the LogReg program over pg, generating the
// training set deterministically from cfg.Seed.
func NewLogRegNonResilient(rt *apgas.Runtime, cfg LogRegConfig, pg apgas.PlaceGroup) (*LogRegNonResilient, error) {
	cfg.setDefaults()
	a := &LogRegNonResilient{cfg: cfg}
	n, d := cfg.Examples, cfg.Features
	data := RegressionData{Seed: cfg.Seed, Examples: n, Features: d}
	var err error
	rowBlocks := cfg.RowBlocksPerPlace * pg.Size()
	if a.x, err = dist.MakeDistBlockMatrix(rt, block.Dense, n, d, rowBlocks, 1, pg.Size(), 1, pg); err != nil {
		return nil, fmt.Errorf("apps: logreg X: %w", err)
	}
	if err = a.x.InitDense(data.Feature); err != nil {
		return nil, err
	}
	if a.yb, err = dist.MakeDistVector(rt, n, pg); err != nil {
		return nil, err
	}
	if err = a.yb.Init(data.BinaryLabel); err != nil {
		return nil, err
	}
	if a.w, err = dist.MakeDupVector(rt, d, pg); err != nil {
		return nil, err
	}
	if a.grad, err = dist.MakeDupVector(rt, d, pg); err != nil {
		return nil, err
	}
	if a.s, err = dist.MakeDistVector(rt, n, pg); err != nil {
		return nil, err
	}
	return a, nil
}

// IsFinished implements core.IterativeApp.
func (a *LogRegNonResilient) IsFinished() bool { return a.iter >= int64(a.cfg.Iterations) }

// Loss returns the logistic objective computed by the last Step.
func (a *LogRegNonResilient) Loss() float64 { return a.loss }

// Step implements core.IterativeApp: one gradient step plus an objective
// evaluation.
func (a *LogRegNonResilient) Step() error {
	// Gradient pass: s = X·w, s := σ(s) − y, grad = Xᵀ·s. The previous
	// step's objective pass left s = X·w for this very w unless a restore
	// came in between; its product is bit-identical to a fresh one.
	fresh := a.fresh
	a.fresh = false
	if !fresh {
		if err := a.x.MultVec(a.w, a.s); err != nil {
			return err
		}
	}
	err := a.s.ZipApplyLocal(a.yb, func(s, y la.Vector, _ int) {
		for i := range s {
			s[i] = la.Sigmoid(s[i]) - y[i]
		}
	})
	if err != nil {
		return err
	}
	if err := a.x.TransMultVec(a.s, a.grad); err != nil {
		return err
	}
	// Model update: w -= η(grad/N + λw), identically at every place.
	eta, lambda, invN := a.cfg.Eta, a.cfg.Lambda, 1/float64(a.cfg.Examples)
	err = a.w.ZipAll(a.grad, func(w, g la.Vector) {
		for i := range w {
			w[i] -= eta * (g[i]*invN + lambda*w[i])
		}
	})
	if err != nil {
		return err
	}
	// Objective pass: loss = Σ log(1+e^s) − y·s over fresh scores.
	if err := a.x.MultVec(a.w, a.s); err != nil {
		return err
	}
	loss, err := a.s.FoldZip(a.yb, func(s, y la.Vector, _ int) float64 {
		var l float64
		for i := range s {
			l += math.Log1p(math.Exp(-math.Abs(s[i]))) + math.Max(s[i], 0) - y[i]*s[i]
		}
		return l
	})
	if err != nil {
		return err
	}
	a.loss = loss * invN
	a.fresh = true
	a.iter++
	return nil
}

// Weights returns the current model.
func (a *LogRegNonResilient) Weights() (la.Vector, error) { return a.w.Root() }
