package apps

import (
	"fmt"
	"math"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/core"
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

// LogReg trains a binary classifier on the logistic loss by gradient
// descent with per-iteration objective evaluation. A steady iteration
// makes two passes over the design matrix: Xᵀ·(σ(s)−y) for the gradient
// and s = X·w for the objective. The objective's scores are the next
// gradient's scores — nothing between two steps changes X, w or s — so
// only the first step, and the first after a Restore, computes X·w
// before its gradient as well. X and the labels are read-only; the model
// w is the mutable checkpoint state.
type LogReg struct {
	rt   *apgas.Runtime
	cfg  LogRegConfig
	pg   apgas.PlaceGroup
	iter int64
	loss float64

	x  *dist.DistBlockMatrix // N×D training examples (read-only)
	yb *dist.DistVector      // N binary labels (read-only)
	w  *dist.DupVector       // model (mutable)

	s    *dist.DistVector // scores X·w
	grad *dist.DupVector  // temporary: gradient
	// fresh reports that s holds X·w for the current w: set when a
	// step's objective pass completes, cleared when a step starts and by
	// Restore.
	fresh bool
}

// NewLogReg builds the LogReg application over pg, generating the training
// set deterministically from cfg.Seed.
func NewLogReg(rt *apgas.Runtime, cfg LogRegConfig, pg apgas.PlaceGroup) (*LogReg, error) {
	cfg.setDefaults()
	a := &LogReg{rt: rt, cfg: cfg, pg: pg.Clone()}
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
	// The model is mutable state gradient descent re-converges from, so
	// it tolerates error-bounded lossy checkpoints; the read-only inputs
	// X and y stay lossless under any policy.
	a.w.AllowLossyCheckpoint(true)
	if a.grad, err = dist.MakeDupVector(rt, d, pg); err != nil {
		return nil, err
	}
	if a.s, err = dist.MakeDistVector(rt, n, pg); err != nil {
		return nil, err
	}
	return a, nil
}

// IsFinished implements core.IterativeApp.
func (a *LogReg) IsFinished() bool { return a.iter >= int64(a.cfg.Iterations) }

// Iteration returns the number of completed iterations.
func (a *LogReg) Iteration() int64 { return a.iter }

// Loss returns the logistic objective computed by the last Step.
func (a *LogReg) Loss() float64 { return a.loss }

// Step implements core.IterativeApp: one gradient step plus an objective
// evaluation.
func (a *LogReg) Step() error {
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
	a.pg = newPG.Clone()
	a.iter = snapshotIter
	return nil
}

// Weights returns the current model.
func (a *LogReg) Weights() (la.Vector, error) { return a.w.Root() }

// Group returns the application's current place group.
func (a *LogReg) Group() apgas.PlaceGroup { return a.pg.Clone() }
