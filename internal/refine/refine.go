// Package refine implements PARED's adaptive h-refinement: Rivara
// longest-edge bisection of triangles and tetrahedra, with refinement
// propagation to keep the mesh conforming, and conformal coarsening.
//
// The algorithm is formulated as a conformity-closure loop over split-edge
// marks. Refining a leaf marks its longest edge as split; a leaf with any
// split edge is nonconforming and is processed by either bisecting it (if its
// longest edge is the split one) or marking its longest edge too, which
// propagates the refinement. The fixed point is the same mesh the recursive
// LEPP formulation produces, but the loop is order-independent, which lets
// the identical code run serially and — with split marks exchanged between
// processors — distributed (see internal/pared). Determinism of the result
// follows from the global-VertexID tie-break in Forest.LongestEdge.
package refine

import (
	"cmp"
	"fmt"
	"slices"

	"pared/internal/forest"
)

// EdgeSplit records a split edge by the global IDs of its endpoints, the
// exchange currency of distributed refinement.
type EdgeSplit struct {
	A, B forest.VertexID // A < B
}

// Compare orders splits by (A, B).
func (s EdgeSplit) Compare(o EdgeSplit) int {
	if s.A != o.A {
		return cmp.Compare(s.A, o.A)
	}
	return cmp.Compare(s.B, o.B)
}

// MakeEdgeSplit canonicalizes an endpoint pair.
func MakeEdgeSplit(a, b forest.VertexID) EdgeSplit {
	if a > b {
		a, b = b, a
	}
	return EdgeSplit{a, b}
}

// Refiner maintains the split-edge state and leaf-edge incidence needed to
// run refinement closures and coarsening over a forest.
//
// Precondition for NewRefiner: the forest is conforming (a completed closure;
// freshly built forests and forests after migration at quiescence qualify).
//
// Trees may be spliced out of and into the forest under a live refiner, at
// quiescence only: call RemoveTree before forest.RemoveTree (the leaves must
// still be there to be walked) and InsertTree after forest.InsertTree, and
// compact the vertex table through the refiner's CompactVertices, never the
// forest's directly. The incidence is keyed by global vertex IDs and holds
// NodeIDs, so it survives the renumbering; the split marks do not, and at
// quiescence none of them is live.
type Refiner struct {
	F *forest.Forest

	// split maps a split edge to the local index of its midpoint vertex.
	split map[EdgeSplit]int32
	// edgeLeaves maps each edge of each current leaf to the leaves containing
	// it.
	edgeLeaves map[EdgeSplit][]forest.NodeID
	// queue holds possibly-nonconforming leaves awaiting processing.
	queue []forest.NodeID
	// newSplits records splits performed since the last TakeNewSplits, for
	// exchange with remote processors.
	newSplits []EdgeSplit

	// Coarsen's scratch, kept between calls (see Coarsen).
	usage, ncand  []int32
	cands, doomed []coarsenCand
}

// NewRefiner builds a refiner over a conforming forest.
func NewRefiner(f *forest.Forest) *Refiner {
	r := &Refiner{
		F:          f,
		split:      make(map[EdgeSplit]int32),
		edgeLeaves: make(map[EdgeSplit][]forest.NodeID),
	}
	f.VisitLeaves(func(id forest.NodeID) { r.addLeafEdges(id) })
	return r
}

// RemoveTree takes the leaves of tree root out of the edge incidence. Call it
// at quiescence, before the forest removes the tree.
func (r *Refiner) RemoveTree(root int32) { r.F.VisitTreeLeaves(root, r.removeLeafEdges) }

// InsertTree enters the leaves of tree root, which the forest has just
// spliced in, into the edge incidence. Call it at quiescence.
func (r *Refiner) InsertTree(root int32) { r.F.VisitTreeLeaves(root, r.addLeafEdges) }

// CompactVertices compacts the forest's vertex table (see
// forest.CompactVertices) and drops the refiner state expressed in the local
// vertex indices that renumbers: the split marks. Call it at quiescence, where
// no mark belongs to a leaf edge any more and no leaf or split is queued — a
// fresh NewRefiner starts from the same empty state.
func (r *Refiner) CompactVertices() int {
	clear(r.split)
	r.queue = r.queue[:0]
	r.newSplits = nil
	return r.F.CompactVertices()
}

// key returns the canonical edge key for local vertices a, b.
func (r *Refiner) key(a, b int32) EdgeSplit {
	return MakeEdgeSplit(r.F.VIDs[a], r.F.VIDs[b])
}

// forEachEdge enumerates the local vertex pairs of node id's edges.
func (r *Refiner) forEachEdge(id forest.NodeID, fn func(a, b int32)) {
	n := r.F.Node(id)
	nv := n.Nv()
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			fn(n.Verts[i], n.Verts[j])
		}
	}
}

func (r *Refiner) addLeafEdges(id forest.NodeID) {
	r.forEachEdge(id, func(a, b int32) {
		k := r.key(a, b)
		r.edgeLeaves[k] = append(r.edgeLeaves[k], id)
	})
}

func (r *Refiner) removeLeafEdges(id forest.NodeID) {
	r.forEachEdge(id, func(a, b int32) {
		k := r.key(a, b)
		s := r.edgeLeaves[k]
		for i, x := range s {
			if x == id {
				s[i] = s[len(s)-1]
				s = s[:len(s)-1]
				break
			}
		}
		if len(s) == 0 {
			delete(r.edgeLeaves, k)
		} else {
			r.edgeLeaves[k] = s
		}
	})
}

// hasSplitEdge reports whether leaf id has any split edge (is nonconforming).
func (r *Refiner) hasSplitEdge(id forest.NodeID) bool {
	found := false
	r.forEachEdge(id, func(a, b int32) {
		if found {
			return
		}
		if _, ok := r.split[r.key(a, b)]; ok {
			found = true
		}
	})
	return found
}

// markSplit marks the edge with local endpoints (a, b) as split, creating its
// midpoint vertex, and enqueues every leaf containing the edge. It is a no-op
// if the edge is already split.
func (r *Refiner) markSplit(a, b int32) {
	k := r.key(a, b)
	if _, ok := r.split[k]; ok {
		return
	}
	mid := r.F.InternVertex(forest.MidID(r.F.VIDs[a], r.F.VIDs[b]), r.F.Coords[a].Mid(r.F.Coords[b]))
	r.split[k] = mid
	r.newSplits = append(r.newSplits, k)
	r.queue = append(r.queue, r.edgeLeaves[k]...)
}

// RefineLeaf requests bisection of leaf id: its longest edge is marked split,
// which the next Closure resolves (propagating as needed).
func (r *Refiner) RefineLeaf(id forest.NodeID) {
	n := r.F.Node(id)
	if n.Dead || !n.IsLeaf() {
		panic("refine: RefineLeaf on non-leaf")
	}
	a, b := r.F.LongestEdge(id)
	r.markSplit(a, b)
}

// MarkSplitByID applies a remotely originated split, identified by global
// vertex IDs. It returns true if the edge exists among local leaf edges and
// was newly marked; false if unknown here (the caller should retain it and
// retry after further local refinement) or already split.
func (r *Refiner) MarkSplitByID(s EdgeSplit) bool {
	if _, ok := r.split[s]; ok {
		return false
	}
	leaves, ok := r.edgeLeaves[s]
	if !ok || len(leaves) == 0 {
		return false
	}
	// Endpoints exist locally: recover their local indices from any leaf.
	la, lb := int32(-1), int32(-1)
	r.forEachEdge(leaves[0], func(a, b int32) {
		if r.key(a, b) == s {
			la, lb = a, b
		}
	})
	if la < 0 {
		return false
	}
	r.markSplit(la, lb)
	return true
}

// IsSplit reports whether the given edge is currently marked split.
func (r *Refiner) IsSplit(s EdgeSplit) bool {
	_, ok := r.split[s]
	return ok
}

// TakeNewSplits drains and returns the record of splits performed since the
// previous call (for exchange with neighboring processors).
func (r *Refiner) TakeNewSplits() []EdgeSplit {
	out := r.newSplits
	r.newSplits = nil
	return out
}

// bisect splits leaf id at edge (a, b) whose midpoint is mid, updating the
// edge-incidence maps and enqueuing children that are still nonconforming.
func (r *Refiner) bisect(id forest.NodeID, a, b, mid int32) {
	r.removeLeafEdges(id)
	k0, k1 := r.F.Bisect(id, a, b, mid)
	r.addLeafEdges(k0)
	r.addLeafEdges(k1)
	if r.hasSplitEdge(k0) {
		r.queue = append(r.queue, k0)
	}
	if r.hasSplitEdge(k1) {
		r.queue = append(r.queue, k1)
	}
}

// maxClosureSteps bounds a single closure as a defense against a
// non-terminating propagation, which would indicate a bug: Rivara refinement
// provably terminates, so the bound is set far above any legitimate cascade.
const maxClosureSteps = 1 << 28

// Closure runs the conformity loop to local quiescence: afterwards no leaf
// has a split edge. It returns the number of bisections performed.
func (r *Refiner) Closure() int {
	bisections := 0
	steps := 0
	for len(r.queue) > 0 {
		if steps++; steps > maxClosureSteps {
			panic("refine: closure did not terminate")
		}
		id := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		n := r.F.Node(id)
		if n.Dead || !n.IsLeaf() || !r.hasSplitEdge(id) {
			continue
		}
		a, b := r.F.LongestEdge(id)
		k := r.key(a, b)
		if mid, ok := r.split[k]; ok {
			r.bisect(id, a, b, mid)
			bisections++
		} else {
			// Propagate: the longest edge must split before this leaf can be
			// bisected conformally. Marking re-enqueues id via edgeLeaves.
			r.markSplit(a, b)
		}
	}
	return bisections
}

// CheckInvariants verifies (for tests) that the refiner is at quiescence — no
// leaf edge is split — and that the edge incidence is exactly what NewRefiner
// would build from the current leaves: every leaf is listed under each of its
// edges, and the lists hold nothing else. The fault reported is the first in
// leaf order, or else the one on the smallest edge, whatever the map order.
func (r *Refiner) CheckInvariants() error {
	var fail error
	want := 0 // (leaf, edge) incidences
	r.F.VisitLeaves(func(id forest.NodeID) {
		r.forEachEdge(id, func(a, b int32) {
			want++
			if fail != nil {
				return
			}
			k := r.key(a, b)
			if _, ok := r.split[k]; ok {
				fail = fmt.Errorf("refine: leaf %d has split edge %v", id, k)
			} else if !slices.Contains(r.edgeLeaves[k], id) {
				fail = fmt.Errorf("refine: leaf %d missing from the incidence of its edge %v", id, k)
			}
		})
	})
	if fail != nil {
		return fail
	}
	// Every list holds its leaves; equal totals mean none holds more.
	got := 0
	for _, leaves := range r.edgeLeaves {
		got += len(leaves)
	}
	if got == want {
		return nil
	}
	count := make(map[EdgeSplit]int)
	r.F.VisitLeaves(func(id forest.NodeID) {
		r.forEachEdge(id, func(a, b int32) { count[r.key(a, b)]++ })
	})
	keys := make([]EdgeSplit, 0, len(r.edgeLeaves))
	for k := range r.edgeLeaves {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, EdgeSplit.Compare)
	for _, k := range keys {
		if len(r.edgeLeaves[k]) != count[k] {
			return fmt.Errorf("refine: edge %v incidence %d, want %d", k, len(r.edgeLeaves[k]), count[k])
		}
	}
	return fmt.Errorf("refine: incidence holds %d entries, the leaves have %d", got, want)
}
