package refine

import (
	"cmp"
	"slices"

	"pared/internal/check"
	"pared/internal/forest"
)

// coarsenCand is a candidate for un-bisection: a refined node whose two
// children are leaves approved by the predicate. Candidates that share a
// midpoint vertex form a group that goes or stays as a whole.
type coarsenCand struct {
	mid    int32 // the parent's midpoint vertex, a local index
	parent forest.NodeID
}

// Coarsen performs conformal derefinement: a refined node whose two children
// are leaves both approved by wantCoarsen is un-bisected, provided its
// midpoint vertex is used by no other surviving leaf (so no hanging node can
// appear). The pass cascades — un-bisection can expose new coarsenable
// nodes — and returns the number of nodes un-bisected. wantCoarsen is called
// at most once per node.
//
// The cascade runs in rounds. One leaf sweep counts the leaf uses of every
// vertex and lists the candidates; after that a round costs what is listed,
// not what exists: it picks the removable groups from the counts as they
// stand when the round starts, un-bisects them in ascending (midpoint, node)
// order, updates the counts for the leaves that went and came, and lists as
// new candidates only the parents of the nodes it restored. A group blocked by
// an outside user of its midpoint stays listed and is checked again against
// the updated counts.
//
// The refiner must be at quiescence (Closure completed). It remains at
// quiescence afterwards: the restored parents' edges are exactly former leaf
// edges plus the parent's own refinement edge, whose split mark is removed
// together with its last users.
func (r *Refiner) Coarsen(wantCoarsen func(id forest.NodeID) bool) int {
	// Un-bisections under another predicate can unblock groups that
	// CoarsenBelow's last fixed point left, so its shortcut ends.
	r.bisected.end()
	return r.coarsen(wantCoarsen)
}

// CoarsenBelow is Coarsen under an adaptation pass's predicate: a leaf is
// approved when its indicator under the current estimator (SetEstimator) is
// below tol and keep, if not nil, does not hold its parent. While the memo
// lives, keep may start to hold a parent but never stop: pared.Engine holds a
// parent whose midpoint is shared, and its shared set only grows between
// migrations, which drop the memo.
//
// Passed the tol of the last CoarsenBelow while the memo lives, it calls
// Coarsen only if a node bisected since is a new candidate, and otherwise
// returns 0 and changes nothing. That is exact. A leaf's approval has not
// changed (the estimator promises as much, and keep only narrows), a
// bisection never lowers a vertex's leaf use (its edge's two ends keep theirs,
// each other vertex gains one and the midpoint two), and refinement only
// removes old candidates; so a group that was blocked at the last fixed point
// is still blocked, and only a new candidate can make one removable. Under
// paredassert a skip is checked against a recount that changes nothing.
func (r *Refiner) CoarsenBelow(tol float64, keep func(parent *forest.Node) bool) int {
	f := r.F
	want := func(id forest.NodeID) bool {
		if keep != nil && keep(f.Node(f.Node(id).Parent)) {
			return false
		}
		return r.Indicator(id) < tol
	}
	n := 0
	if !r.bisected.holds(tol, 0) || r.newCandidate(want) {
		n = r.coarsen(want)
	} else if check.Enabled {
		cands := r.sweepCandidates(want)
		for _, c := range cands {
			check.Assertf(r.usage[c.mid] != 2*r.ncand[c.mid], "refine: CoarsenBelow skipped Coarsen, but the group of node %d is removable", c.parent)
		}
		r.cands = cands[:0]
	}
	r.bisected.start(tol, 0)
	return n
}

// newCandidate reports whether a node bisected since the last CoarsenBelow is
// a coarsening candidate now: refined, with two leaf children want approves.
func (r *Refiner) newCandidate(want func(id forest.NodeID) bool) bool {
	f := r.F
	for _, id := range r.bisected.ids {
		n := f.Node(id)
		if !n.Dead && !n.IsLeaf() && f.Node(n.Kids[0]).IsLeaf() && f.Node(n.Kids[1]).IsLeaf() &&
			want(n.Kids[0]) && want(n.Kids[1]) {
			return true
		}
	}
	return false
}

// sweepCandidates is Coarsen's one leaf sweep: it counts the leaf uses of
// every vertex into r.usage and returns the candidates, counted per midpoint
// into r.ncand. It changes nothing else.
func (r *Refiner) sweepCandidates(want func(id forest.NodeID) bool) []coarsenCand {
	f := r.F
	r.usage, r.ncand = zeroed(r.usage, len(f.Coords)), zeroed(r.ncand, len(f.Coords))
	usage := r.usage
	cands := r.cands[:0]
	// Each pair is examined once, when its second child becomes a leaf (or
	// here, if both are leaves from the start).
	f.VisitLeaves(func(id forest.NodeID) {
		n := f.Node(id)
		for _, v := range n.Verts[:n.Nv()] {
			usage[v]++
		}
		if n.Parent == forest.NoNode {
			return
		}
		if p := f.Node(n.Parent); p.Kids[0] == id && f.Node(p.Kids[1]).IsLeaf() {
			cands = r.list(cands, n.Parent, want)
		}
	})
	return cands
}

// list appends to cands the node pid, whose two children are leaves, if want
// approves both, and counts it at its midpoint.
func (r *Refiner) list(cands []coarsenCand, pid forest.NodeID, want func(id forest.NodeID) bool) []coarsenCand {
	p := r.F.Node(pid)
	if want(p.Kids[0]) && want(p.Kids[1]) {
		r.ncand[p.MidV]++
		return append(cands, coarsenCand{p.MidV, pid})
	}
	return cands
}

// coarsen is Coarsen.
func (r *Refiner) coarsen(wantCoarsen func(id forest.NodeID) bool) int {
	f := r.F
	// usage[v] is the number of leaves using vertex v; ncand[v] the number of
	// listed candidates whose midpoint is v. Every candidate contributes two
	// leaves to usage[mid], so the group of v is removable exactly when
	// usage[v] == 2*ncand[v]: no leaf outside the group uses the midpoint.
	cands := r.sweepCandidates(wantCoarsen)
	usage, ncand := r.usage, r.ncand

	total := 0
	doomed := r.doomed[:0]
	for {
		// Collect first, mutate after: what goes this round is decided from
		// the counts before any of it went.
		doomed = doomed[:0]
		kept := cands[:0]
		for _, c := range cands {
			if usage[c.mid] == 2*ncand[c.mid] {
				doomed = append(doomed, c)
			} else {
				kept = append(kept, c)
			}
		}
		if len(doomed) == 0 {
			break
		}
		cands = kept
		// A fixed order keeps the free list, hence every later NodeID,
		// independent of how the candidates were found.
		slices.SortFunc(doomed, func(a, b coarsenCand) int {
			if a.mid != b.mid {
				return cmp.Compare(a.mid, b.mid)
			}
			return cmp.Compare(a.parent, b.parent)
		})
		for _, c := range doomed {
			ncand[c.mid]--
			p := f.Node(c.parent)
			for _, k := range p.Kids {
				kn := f.Node(k)
				for _, v := range kn.Verts[:kn.Nv()] {
					usage[v]--
				}
			}
			for _, v := range p.Verts[:p.Nv()] {
				usage[v]++
			}
			r.unbisect(c.parent)
			total++
			// The restored node may complete a pair of leaves one level up;
			// listed now, it is decided on in the next round.
			if p.Parent != forest.NoNode {
				if gp := f.Node(p.Parent); f.Node(gp.Kids[0]).IsLeaf() && f.Node(gp.Kids[1]).IsLeaf() {
					cands = r.list(cands, p.Parent, wantCoarsen)
				}
			}
		}
	}
	r.cands, r.doomed = cands[:0], doomed[:0]
	return total
}

// zeroed returns s resized to n zero elements, reusing its storage.
func zeroed(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}
