package apps

import (
	"fmt"
	"math"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/dist"
	"github.com/rgml/rgml/internal/la"
)

// LogRegNonResilient is the plain logistic regression program without
// checkpoint/restore support — the "non-resilient" column of Table II and
// the baseline of Figures 3 and 6.
type LogRegNonResilient struct {
	rt   *apgas.Runtime
	cfg  LogRegConfig
	pg   apgas.PlaceGroup
	iter int64
	loss float64

	x  *dist.DistBlockMatrix
	yb *dist.DistVector
	w  *dist.DupVector

	s    *dist.DistVector
	grad *dist.DupVector
	// fresh reports that s holds X·w for the current w (see LogReg).
	fresh bool
}

// NewLogRegNonResilient builds the non-resilient LogReg program.
func NewLogRegNonResilient(rt *apgas.Runtime, cfg LogRegConfig, pg apgas.PlaceGroup) (*LogRegNonResilient, error) {
	cfg.setDefaults()
	a := &LogRegNonResilient{rt: rt, cfg: cfg, pg: pg.Clone()}
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

// IsFinished reports whether all iterations have completed.
func (a *LogRegNonResilient) IsFinished() bool { return a.iter >= int64(a.cfg.Iterations) }

// Loss returns the logistic objective computed by the last Step.
func (a *LogRegNonResilient) Loss() float64 { return a.loss }

// Step performs one gradient step plus an objective evaluation (identical
// to the resilient Step).
func (a *LogRegNonResilient) Step() error {
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
	eta, lambda, invN := a.cfg.Eta, a.cfg.Lambda, 1/float64(a.cfg.Examples)
	err = a.w.ZipAll(a.grad, func(w, g la.Vector) {
		for i := range w {
			w[i] -= eta * (g[i]*invN + lambda*w[i])
		}
	})
	if err != nil {
		return err
	}
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

// Run executes the full iteration loop.
func (a *LogRegNonResilient) Run() error {
	for !a.IsFinished() {
		if err := a.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Weights returns the current model.
func (a *LogRegNonResilient) Weights() (la.Vector, error) { return a.w.Root() }
