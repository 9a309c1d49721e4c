package refine

import (
	"pared/internal/check"
	"pared/internal/forest"
)

// Estimator supplies a per-leaf error indicator driving adaptation. PARED's
// experiments use interpolation-error indicators for problems with known
// analytic solutions (see internal/fem); a solver-based estimator satisfies
// the same interface.
//
// Indicator must be a pure function of the node for the duration of one adapt
// call: pared.Engine.Adapt evaluates it at most once per node and reuses the
// value, and the coarsening of AdaptOnce asks about each node at most once. An
// estimator built from a forest.LeafMeshResult and keyed by NodeID — the
// byNode maps of both ZZEstimators — is valid for the one adapt call that
// follows the extraction and no longer: coarsening frees node slots and the
// next refinement hands them to other nodes.
type Estimator interface {
	// Indicator returns the (nonnegative) local error estimate for leaf id.
	Indicator(f *forest.Forest, id forest.NodeID) float64
}

// EstimatorFunc adapts a function to the Estimator interface.
type EstimatorFunc func(f *forest.Forest, id forest.NodeID) float64

// Indicator implements Estimator.
func (fn EstimatorFunc) Indicator(f *forest.Forest, id forest.NodeID) float64 {
	return fn(f, id)
}

// AdaptResult reports what one adaptation pass did.
type AdaptResult struct {
	// Refined is the number of bisections performed (including propagation).
	Refined int
	// Coarsened is the number of un-bisections performed.
	Coarsened int
	// Flagged is the number of leaves whose indicator exceeded the tolerance.
	Flagged int
}

// AdaptOnce runs one adaptation pass: leaves with indicator above refineTol
// (and below maxLevel) are refined; if coarsenTol > 0, leaves with indicator
// below coarsenTol are candidates for conformal coarsening. It corresponds to
// phase P0 of the paper's Figure 2.
func AdaptOnce(r *Refiner, est Estimator, refineTol, coarsenTol float64, maxLevel int32) AdaptResult {
	var res AdaptResult
	f := r.F
	var targets []forest.NodeID
	f.VisitLeaves(func(id forest.NodeID) {
		n := f.Node(id)
		if est.Indicator(f, id) > refineTol && n.Level < maxLevel {
			targets = append(targets, id)
		}
	})
	res.Flagged = len(targets)
	for _, id := range targets {
		r.RefineLeaf(id)
	}
	res.Refined = r.Closure()
	if coarsenTol > 0 {
		res.Coarsened = r.Coarsen(func(id forest.NodeID) bool {
			return est.Indicator(f, id) < coarsenTol
		})
	}
	return res
}

// AdaptToTolerance repeatedly refines until no leaf exceeds tol (or maxLevel
// caps growth), returning the refiner and the number of passes taken. This
// reproduces the paper's "the mesh was adapted using the L∞ norm ... eight
// levels of refinement were needed" loop.
func AdaptToTolerance(f *forest.Forest, est Estimator, tol float64, maxLevel int32, maxPasses int) (*Refiner, int) {
	r := NewRefiner(f)
	passes := maxPasses
	for pass := 0; pass < maxPasses; pass++ {
		res := AdaptOnce(r, est, tol, 0, maxLevel)
		if res.Flagged == 0 {
			passes = pass
			break
		}
	}
	if check.Enabled && f.NumLeaves() > 0 {
		// Bisection closure must leave the leaf mesh conformal after every
		// adaptation round.
		check.MeshConformal(f.LeafMesh().Mesh, "refine.AdaptToTolerance")
	}
	return r, passes
}
