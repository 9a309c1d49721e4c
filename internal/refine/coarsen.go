package refine

import (
	"cmp"
	"slices"

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
	f := r.F
	// usage[v] is the number of leaves using vertex v; ncand[v] the number of
	// listed candidates whose midpoint is v. Every candidate contributes two
	// leaves to usage[mid], so the group of v is removable exactly when
	// usage[v] == 2*ncand[v]: no leaf outside the group uses the midpoint.
	r.usage, r.ncand = zeroed(r.usage, len(f.Coords)), zeroed(r.ncand, len(f.Coords))
	usage, ncand := r.usage, r.ncand
	cands := r.cands[:0]
	// list examines the children of pid, both leaves; each pair is examined
	// once, when its second child becomes a leaf (or in the sweep, if both
	// are leaves from the start).
	list := func(pid forest.NodeID) {
		p := f.Node(pid)
		if wantCoarsen(p.Kids[0]) && wantCoarsen(p.Kids[1]) {
			cands = append(cands, coarsenCand{p.MidV, pid})
			ncand[p.MidV]++
		}
	}
	f.VisitLeaves(func(id forest.NodeID) {
		n := f.Node(id)
		for _, v := range n.Verts[:n.Nv()] {
			usage[v]++
		}
		if n.Parent == forest.NoNode {
			return
		}
		if p := f.Node(n.Parent); p.Kids[0] == id && f.Node(p.Kids[1]).IsLeaf() {
			list(n.Parent)
		}
	})

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
					list(p.Parent)
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
