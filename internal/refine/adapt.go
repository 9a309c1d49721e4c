package refine

import (
	"math"
	"reflect"
	"slices"

	"pared/internal/check"
	"pared/internal/forest"
)

// Estimator supplies a per-leaf error indicator driving adaptation. PARED's
// experiments use interpolation-error indicators for problems with known
// analytic solutions (see internal/fem); a solver-based estimator satisfies
// the same interface.
//
// Indicator must be a pure function of the node for the duration of one adapt
// call. The refiner memoizes it by NodeID (Refiner.SetEstimator), so
// AdaptOnce and pared.Engine.Adapt evaluate it at most once per node per
// call, and across calls too when they are passed the same estimator again:
// passing a comparable estimator that is == the previous one promises that a
// live node's indicator has not changed since. On that promise a repeated
// pass also skips what cannot have changed: its target sweep examines only
// the leaves born since the last one, and its coarsening runs only if a new
// candidate appeared (Refiner.MarkTargets, Refiner.CoarsenBelow). An
// estimator of an uncomparable type, such as EstimatorFunc, is never compared,
// and its values serve one call only, whose passes are full. An estimator
// keyed by NodeID and built from a forest.LeafMeshResult — fem.ZZEstimator and
// pared's Engine.ZZEstimator, both EstimatorFunc — is valid for the one adapt
// call that follows the extraction and no longer: coarsening frees node slots
// and the next refinement hands them to other nodes.
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

// SetEstimator makes est the estimator Indicator evaluates. The memo of the
// previous estimator carries over when est is == to it, which the Estimator
// contract allows only for a comparable one; otherwise the memo starts
// empty, and with it the shortcuts of a repeated pass end. An estimator whose
// dynamic value is not comparable (EstimatorFunc) is never compared, so it
// cannot panic, and its values serve until the next SetEstimator.
func (r *Refiner) SetEstimator(est Estimator) {
	// A comparable r.est is == to any est without panicking.
	if reflect.ValueOf(r.est).Comparable() && est == r.est {
		return
	}
	r.dropMemo()
	r.est = est
}

// Indicator returns the estimator's indicator of node id (see SetEstimator),
// evaluated at most once while id names the same node. Under paredassert a
// reused value is evaluated again and must agree bit for bit.
func (r *Refiner) Indicator(id forest.NodeID) float64 {
	for len(r.ind) < len(r.F.Nodes) {
		r.ind = append(r.ind, -1)
	}
	v := r.ind[id]
	if v < 0 {
		v = r.est.Indicator(r.F, id)
		r.ind[id] = v
	} else if check.Enabled {
		w := r.est.Indicator(r.F, id)
		check.Assertf(math.Float64bits(w) == math.Float64bits(v), "refine: node %d: memoized indicator %v, the estimator gives %v", id, v, w)
	}
	return v
}

// forget clears node id's memo entry.
func (r *Refiner) forget(id forest.NodeID) {
	if int(id) < len(r.ind) {
		r.ind[id] = -1
	}
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

// MarkTargets is an adaptation pass's target sweep: it makes est the
// estimator (SetEstimator) and requests refinement (RefineLeaf), in
// VisitLeaves order, of every leaf below maxLevel whose indicator exceeds
// refineTol. It returns how many leaves it flagged and how many it examined.
// Run Closure before the next call.
//
// Passed the estimator, refineTol and maxLevel of the last sweep while the
// memo lives, it examines only the leaves born since: the children of the
// nodes bisected since and the nodes un-bisected since, as far as they are
// leaves now, put into VisitLeaves order (forest.SortLeaves). Otherwise it
// examines every leaf. That is exact: the last sweep flagged every leaf it had
// to, the closure bisected each of them, and a leaf it rejected is rejected
// again, since its level is fixed and its indicator is too (the Estimator
// contract). Under paredassert the short list is checked against a full
// sweep's, element for element.
func (r *Refiner) MarkTargets(est Estimator, refineTol float64, maxLevel int32) (flagged, swept int) {
	f := r.F
	r.SetEstimator(est)
	want := func(id forest.NodeID) bool {
		return f.Node(id).Level < maxLevel && r.Indicator(id) > refineTol
	}
	targets := r.targets[:0]
	// A queue left over means the last sweep's targets were never bisected.
	if r.changed.holds(refineTol, maxLevel) && len(r.queue) == 0 {
		for _, id := range r.changed.ids {
			switch n := f.Node(id); {
			case n.Dead:
			case n.IsLeaf():
				targets = append(targets, id)
			default:
				for _, k := range n.Kids {
					if f.Node(k).IsLeaf() {
						targets = append(targets, k)
					}
				}
			}
		}
		targets = f.SortLeaves(targets)
		swept = len(targets)
		targets = slices.DeleteFunc(targets, func(id forest.NodeID) bool { return !want(id) })
		if check.Enabled {
			var full []forest.NodeID
			f.VisitLeaves(func(id forest.NodeID) {
				if want(id) {
					full = append(full, id)
				}
			})
			check.Assertf(slices.Equal(targets, full), "refine: MarkTargets examined %d leaves born since the last sweep and flagged %v, a full sweep flags %v", swept, targets, full)
		}
	} else {
		swept = f.NumLeaves()
		f.VisitLeaves(func(id forest.NodeID) {
			if want(id) {
				targets = append(targets, id)
			}
		})
	}
	r.changed.start(refineTol, maxLevel)
	for _, id := range targets {
		r.RefineLeaf(id)
	}
	r.targets = targets[:0]
	return len(targets), swept
}

// AdaptOnce runs one adaptation pass: leaves with indicator above refineTol
// (and below maxLevel) are refined; if coarsenTol > 0, leaves with indicator
// below coarsenTol are candidates for conformal coarsening. It corresponds to
// phase P0 of the paper's Figure 2. est is evaluated through the refiner's
// memo (see Estimator), so the coarsening asks it nothing the sweep already
// did. A pass that repeats one with the same comparable estimator asks it only
// about the nodes refinement created since, sweeps only the leaves born since
// (MarkTargets) and coarsens only if a new candidate appeared (CoarsenBelow),
// so it costs what changed.
func AdaptOnce(r *Refiner, est Estimator, refineTol, coarsenTol float64, maxLevel int32) AdaptResult {
	var res AdaptResult
	res.Flagged, _ = r.MarkTargets(est, refineTol, maxLevel)
	res.Refined = r.Closure()
	if coarsenTol > 0 {
		res.Coarsened = r.CoarsenBelow(coarsenTol, nil)
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
