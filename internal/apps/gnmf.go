package apps

import (
	"fmt"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/dist"
	"github.com/rgml/rgml/internal/la"
)

// GNMFConfig parameterizes the Gaussian non-negative matrix factorization
// benchmark — a fourth GML-style application beyond the paper's three,
// exercising the distributed matrix-matrix operations (GML ships GNMF in
// the same benchmark family; see DESIGN.md, extensions).
type GNMFConfig struct {
	// Rows (documents) × Cols (terms) size the sparse data matrix V;
	// NNZPerCol sets its density.
	Rows, Cols, NNZPerCol int
	// Rank is the factorization rank K: V ≈ W(Rows×K) · H(K×Cols).
	Rank int
	// Iterations is the fixed multiplicative-update count.
	Iterations int
	// Seed selects the synthetic data.
	Seed uint64
	// RowBlocksPerPlace sets the data-grid granularity.
	RowBlocksPerPlace int
	// Epsilon guards the divisions of the multiplicative updates.
	Epsilon float64
}

func (c *GNMFConfig) setDefaults() {
	if c.RowBlocksPerPlace == 0 {
		c.RowBlocksPerPlace = 1
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-9
	}
}

// GNMF factorizes a sparse matrix V into non-negative factors W·H by
// Lee-Seung multiplicative updates:
//
//	H ← H ∘ (WᵀV)  ⊘ (WᵀW·H + ε)
//	W ← W ∘ (V·Hᵀ) ⊘ (W·(H·Hᵀ) + ε)
//
// V is read-only and row-striped; W is a conformal distributed dense
// matrix; H is duplicated. Checkpoints save V once (SaveReadOnly) and the
// two factors every time.
type GNMF struct {
	rt   *apgas.Runtime
	cfg  GNMFConfig
	iter int64

	v *dist.DistBlockMatrix // data (read-only, sparse)
	w *dist.DistBlockMatrix // left factor (mutable, dense, conformal with V)
	h *dist.DupDenseMatrix  // right factor (mutable, duplicated)

	// Temporaries, rebuilt on Restore.
	wtv, wtw, hht *dist.DupDenseMatrix
	vht, wgram    *dist.DistBlockMatrix
}

// NewGNMF builds the GNMF application over pg with deterministic synthetic
// data and strictly positive factor initialization.
func NewGNMF(rt *apgas.Runtime, cfg GNMFConfig, pg apgas.PlaceGroup) (*GNMF, error) {
	cfg.setDefaults()
	if cfg.Rank < 1 {
		return nil, fmt.Errorf("apps: gnmf rank %d", cfg.Rank)
	}
	a := &GNMF{rt: rt, cfg: cfg}
	if err := a.build(pg); err != nil {
		return nil, err
	}
	if err := a.initData(); err != nil {
		return nil, err
	}
	return a, nil
}

// build allocates every distributed object over pg.
func (a *GNMF) build(pg apgas.PlaceGroup) error {
	cfg := a.cfg
	p := pg.Size()
	rowBlocks := cfg.RowBlocksPerPlace * p
	var err error
	if a.v, err = dist.MakeDistBlockMatrix(a.rt, block.Sparse, cfg.Rows, cfg.Cols, rowBlocks, 1, p, 1, pg); err != nil {
		return fmt.Errorf("apps: gnmf V: %w", err)
	}
	if a.w, err = dist.MakeDistBlockMatrix(a.rt, block.Dense, cfg.Rows, cfg.Rank, rowBlocks, 1, p, 1, pg); err != nil {
		return err
	}
	// The factors W and H are mutable state the multiplicative updates
	// re-converge from, so they tolerate error-bounded lossy checkpoints;
	// the read-only input V stays lossless under any policy.
	a.w.AllowLossyCheckpoint(true)
	if a.vht, err = dist.MakeDistBlockMatrix(a.rt, block.Dense, cfg.Rows, cfg.Rank, rowBlocks, 1, p, 1, pg); err != nil {
		return err
	}
	if a.wgram, err = dist.MakeDistBlockMatrix(a.rt, block.Dense, cfg.Rows, cfg.Rank, rowBlocks, 1, p, 1, pg); err != nil {
		return err
	}
	if a.h, err = dist.MakeDupDenseMatrix(a.rt, cfg.Rank, cfg.Cols, pg); err != nil {
		return err
	}
	a.h.AllowLossyCheckpoint(true)
	if a.wtv, err = dist.MakeDupDenseMatrix(a.rt, cfg.Rank, cfg.Cols, pg); err != nil {
		return err
	}
	if a.wtw, err = dist.MakeDupDenseMatrix(a.rt, cfg.Rank, cfg.Rank, pg); err != nil {
		return err
	}
	if a.hht, err = dist.MakeDupDenseMatrix(a.rt, cfg.Rank, cfg.Rank, pg); err != nil {
		return err
	}
	return nil
}

// initData fills V, W and H deterministically (factors strictly positive,
// as multiplicative updates preserve signs).
func (a *GNMF) initData() error {
	cfg := a.cfg
	gen := func(j int) ([]int, []float64) {
		rng := la.NewRNG(mix64(cfg.Seed, j, 0xfac7))
		d := cfg.NNZPerCol
		rows := make([]int, d)
		vals := make([]float64, d)
		for k := range rows {
			rows[k] = rng.Intn(cfg.Rows)
			vals[k] = rng.Float64() + 0.05
		}
		return rows, vals
	}
	if err := a.v.InitSparseColumns(gen); err != nil {
		return err
	}
	if err := a.w.InitDense(func(i, j int) float64 {
		return uniform01(mix64(cfg.Seed^0x57, i, j)) + 0.1
	}); err != nil {
		return err
	}
	return a.h.Init(func(i, j int) float64 {
		return uniform01(mix64(cfg.Seed^0x58, i, j)) + 0.1
	})
}

// IsFinished implements core.IterativeApp.
func (a *GNMF) IsFinished() bool { return a.iter >= int64(a.cfg.Iterations) }

// Step implements core.IterativeApp: one pair of multiplicative updates.
func (a *GNMF) Step() error {
	eps := a.cfg.Epsilon
	// H update: H ← H ∘ (WᵀV) ⊘ (WᵀW·H + ε).
	if err := a.w.TransMultMatrix(a.v, a.wtv); err != nil {
		return err
	}
	if err := a.w.TransMultMatrix(a.w, a.wtw); err != nil {
		return err
	}
	err := a.h.ZipAll2(a.wtv, a.wtw, func(h, wtv, wtw *la.DenseMatrix) {
		denom := la.NewDense(h.Rows, h.Cols)
		wtw.Mult(h, denom)
		for i := range h.Data {
			h.Data[i] *= wtv.Data[i] / (denom.Data[i] + eps)
		}
	})
	if err != nil {
		return err
	}
	// W update: W ← W ∘ (V·Hᵀ) ⊘ (W·(H·Hᵀ) + ε).
	if err := a.v.MultDupTranspose(a.h, a.vht); err != nil {
		return err
	}
	err = a.hht.ZipAll(a.h, func(hht, h *la.DenseMatrix) {
		hht.Zero()
		la.AccumTransDenseDense(transposeOf(h), transposeOf(h), hht)
	})
	if err != nil {
		return err
	}
	if err := a.w.MultDupMatrix(a.hht, a.wgram); err != nil {
		return err
	}
	err = dist.ZipBlocks(a.w, a.vht, a.wgram, func(w, num, den *block.MatrixBlock) {
		for i := range w.Dense.Data {
			w.Dense.Data[i] *= num.Dense.Data[i] / (den.Dense.Data[i] + eps)
		}
	})
	if err != nil {
		return err
	}
	a.iter++
	return nil
}

// transposeOf materializes hᵀ (K×M → M×K) so H·Hᵀ can reuse the AᵀB
// kernel as (Hᵀ)ᵀ·Hᵀ. K is small, so the copy is cheap.
func transposeOf(h *la.DenseMatrix) *la.DenseMatrix {
	t := la.NewDense(h.Cols, h.Rows)
	for j := 0; j < h.Cols; j++ {
		for i := 0; i < h.Rows; i++ {
			t.Set(j, i, h.At(i, j))
		}
	}
	return t
}

// Objective returns ‖V − W·H‖²_F, computed against gathered copies (test
// and demo sizes only; not a scalable operation).
func (a *GNMF) Objective() (float64, error) {
	vd, err := a.v.ToDense()
	if err != nil {
		return 0, err
	}
	wd, err := a.w.ToDense()
	if err != nil {
		return 0, err
	}
	hd, err := a.h.Root()
	if err != nil {
		return 0, err
	}
	prod := la.NewDense(vd.Rows, vd.Cols)
	wd.Mult(hd, prod)
	var sum float64
	for i := range prod.Data {
		d := vd.Data[i] - prod.Data[i]
		sum += d * d
	}
	return sum, nil
}

// Checkpoint implements core.IterativeApp.
func (a *GNMF) Checkpoint(store *core.AppResilientStore) error {
	if err := store.StartNewSnapshot(); err != nil {
		return err
	}
	if err := store.SaveReadOnly(a.v); err != nil {
		return err
	}
	if err := store.Save(a.w); err != nil {
		return err
	}
	if err := store.Save(a.h); err != nil {
		return err
	}
	return store.Commit()
}

// Restore implements core.IterativeApp.
func (a *GNMF) Restore(newPG apgas.PlaceGroup, store *core.AppResilientStore, snapshotIter int64, rebalance bool) error {
	if err := a.v.Remake(newPG, !rebalance); err != nil {
		return err
	}
	if err := a.w.Remake(newPG, !rebalance); err != nil {
		return err
	}
	if err := a.vht.Remake(newPG, !rebalance); err != nil {
		return err
	}
	if err := a.wgram.Remake(newPG, !rebalance); err != nil {
		return err
	}
	for _, d := range []*dist.DupDenseMatrix{a.h, a.wtv, a.wtw, a.hht} {
		if err := d.Remake(newPG); err != nil {
			return err
		}
	}
	if err := store.Restore(); err != nil {
		return err
	}
	a.iter = snapshotIter
	return nil
}

// Factors returns gathered copies of W and H.
func (a *GNMF) Factors() (*la.DenseMatrix, *la.DenseMatrix, error) {
	w, err := a.w.ToDense()
	if err != nil {
		return nil, nil, err
	}
	h, err := a.h.Root()
	if err != nil {
		return nil, nil, err
	}
	return w, h, nil
}
