package apps

import (
	"fmt"
	"math"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/block"
	"github.com/rgml/rgml/internal/dist"
	"github.com/rgml/rgml/internal/la"
)

// PageRankConfig parameterizes the PageRank benchmark.
type PageRankConfig struct {
	// Nodes is the network size; OutDegree the out-links per node (so the
	// network has Nodes×OutDegree edges).
	Nodes, OutDegree int
	// Alpha is the damping factor (paper pseudocode: P = αGP + (1−α)EuᵀP).
	Alpha float64
	// Iterations is the fixed iteration count (the paper runs 30).
	Iterations int
	// Tolerance, when positive, stops the power iteration as soon as the
	// L1 change of the rank vector between iterations drops below it (in
	// addition to the Iterations cap) — the iterations-to-converge
	// measurement used by the compression benchmark.
	Tolerance float64
	// Seed selects the synthetic network.
	Seed uint64
	// RowBlocksPerPlace sets the data-grid granularity (1 gives one
	// row-stripe block per place).
	RowBlocksPerPlace int
}

func (c *PageRankConfig) setDefaults() {
	if c.Alpha == 0 {
		c.Alpha = 0.85
	}
	if c.RowBlocksPerPlace == 0 {
		c.RowBlocksPerPlace = 1
	}
}

// PageRankNonResilient is the plain PageRank program (paper Listing 2) —
// the "non-resilient" column of the paper's Table II and the baseline
// curve of Figures 4 and 7. Its mutable state is the rank vector P; the
// link matrix G and the personalization vector U never change.
type PageRankNonResilient struct {
	cfg  PageRankConfig
	iter int64

	g  *dist.DistBlockMatrix // sparse N×N link matrix (read-only)
	p  *dist.DupVector       // rank vector (mutable)
	u  *dist.DistVector      // personalization vector (read-only)
	gp *dist.DistVector      // temporary: G·P

	// lastDelta is the L1 change of the rank vector over the most recent
	// iteration, tracked only when cfg.Tolerance is set (the extra
	// root-copy collectives would otherwise perturb the default run's
	// network accounting).
	lastDelta float64
}

// NewPageRankNonResilient builds the PageRank program over pg, generating
// the network deterministically from cfg.Seed.
func NewPageRankNonResilient(rt *apgas.Runtime, cfg PageRankConfig, pg apgas.PlaceGroup) (*PageRankNonResilient, error) {
	cfg.setDefaults()
	a := &PageRankNonResilient{cfg: cfg, lastDelta: math.Inf(1)}
	n := cfg.Nodes
	var err error
	rowBlocks := cfg.RowBlocksPerPlace * pg.Size()
	if a.g, err = dist.MakeDistBlockMatrix(rt, block.Sparse, n, n, rowBlocks, 1, pg.Size(), 1, pg); err != nil {
		return nil, fmt.Errorf("apps: pagerank G: %w", err)
	}
	link := LinkData{Seed: cfg.Seed, Nodes: n, OutDegree: cfg.OutDegree}
	if err = a.g.InitSparseColumns(link.Column); err != nil {
		return nil, err
	}
	if a.p, err = dist.MakeDupVector(rt, n, pg); err != nil {
		return nil, err
	}
	if err = a.p.Init(func(int) float64 { return 1 / float64(n) }); err != nil {
		return nil, err
	}
	if a.u, err = dist.MakeDistVector(rt, n, pg); err != nil {
		return nil, err
	}
	if err = a.u.Init(func(int) float64 { return 1 / float64(n) }); err != nil {
		return nil, err
	}
	if a.gp, err = dist.MakeDistVector(rt, n, pg); err != nil {
		return nil, err
	}
	return a, nil
}

// IsFinished implements core.IterativeApp: the fixed iteration cap, or
// rank-vector convergence when cfg.Tolerance is set.
func (a *PageRankNonResilient) IsFinished() bool {
	if a.iter >= int64(a.cfg.Iterations) {
		return true
	}
	return a.cfg.Tolerance > 0 && a.lastDelta <= a.cfg.Tolerance
}

// Step implements core.IterativeApp: one power iteration
// P = αG·P + (1−α)·E·uᵀP (paper Listing 2, lines 13-17).
func (a *PageRankNonResilient) Step() error {
	var prev la.Vector
	if a.cfg.Tolerance > 0 {
		var err error
		if prev, err = a.p.Root(); err != nil {
			return err
		}
	}
	if err := a.g.MultVec(a.p, a.gp); err != nil { // GP = G·P
		return err
	}
	if err := a.gp.Scale(a.cfg.Alpha); err != nil { // GP *= α
		return err
	}
	utp, err := a.u.DotDup(a.p) // uᵀP
	if err != nil {
		return err
	}
	utp1a := utp * (1 - a.cfg.Alpha)
	if err := a.gp.GatherTo(a.p); err != nil { // gather
		return err
	}
	err = a.p.RootApply(func(local la.Vector) { local.CellAdd(utp1a) })
	if err != nil {
		return err
	}
	if err := a.p.Sync(); err != nil { // broadcast
		return err
	}
	if prev != nil {
		cur, err := a.p.Root()
		if err != nil {
			return err
		}
		var delta float64
		for i := range cur {
			delta += math.Abs(cur[i] - prev[i])
		}
		a.lastDelta = delta
	}
	a.iter++
	return nil
}

// Ranks returns the current rank vector.
func (a *PageRankNonResilient) Ranks() (la.Vector, error) { return a.p.Root() }
