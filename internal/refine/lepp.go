package refine

import "pared/internal/forest"

// RefineLeafLEPP refines leaf id using Rivara's recursive formulation (the
// papers the refinement section cites, [10] for triangles, [11] for
// tetrahedra): repeatedly follow the Longest-Edge Propagation Path from the
// target — hop to a neighbor whose longest edge dominates the current one —
// until a terminal edge is reached (the longest edge of every leaf sharing
// it), bisect all its sharers there, and restart until the target itself is
// bisected. It returns the number of bisections performed.
//
// The fixed point is the same conforming mesh the mark-and-closure engine
// (RefineLeaf + Closure) produces; TestLEPPMatchesClosure verifies the
// equivalence. LEPP exists as a cross-validation oracle and for callers who
// want refinement without a separate closure phase.
//
// Ordering: edges are compared in the total order (length², idA, idB) that
// Forest.LongestEdge maximizes, so the path's edges strictly increase and
// the walk terminates.
func (r *Refiner) RefineLeafLEPP(id forest.NodeID) int {
	f := r.F
	if f.Node(id).Dead || !f.Node(id).IsLeaf() {
		panic("refine: RefineLeafLEPP on non-leaf")
	}
	bisections := 0
	// The target is "refined" once it stops being a leaf.
	for f.Node(id).IsLeaf() {
		cur := id
		for step := 0; ; step++ {
			if step > maxClosureSteps {
				panic("refine: LEPP did not terminate")
			}
			a, b := f.LongestEdge(cur)
			e := r.edges.find(a, b)
			// Find a sharer of the edge whose own longest edge dominates.
			next := forest.NoNode
			for _, s := range e.leaves {
				if s == cur {
					continue
				}
				if sa, sb := f.LongestEdge(s); edgeKey(sa, sb) != e.key() {
					next = s
					break
				}
			}
			if next != forest.NoNode {
				cur = next
				continue
			}
			// Terminal: the edge is the longest edge of every sharer.
			// Bisect them all at it (conformal by construction).
			r.markSplit(e)
			// Bisecting a sharer takes it off e's list, and the mark keeps e
			// alive through it.
			sharers := append([]forest.NodeID(nil), e.leaves...)
			for _, s := range sharers {
				// Recover the edge's local indices within s (interning is
				// shared, so a and b are valid for every sharer).
				r.bisect(s, a, b, e.mid)
				bisections++
			}
			break
		}
	}
	// markSplit enqueued the sharers for Closure, but they were bisected
	// right here; the stale queue entries are harmless (Closure skips
	// non-leaves and conforming leaves). The refiner is at quiescence.
	return bisections
}
