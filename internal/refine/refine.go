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
// run refinement closures and coarsening over a forest: one record per edge
// (see edgeTable), keyed by its local endpoints, holding its split midpoint
// and the leaves that contain it. Global vertex IDs appear only at the
// interface to other processors: MarkSplitByID, IsSplit and TakeNewSplits.
//
// Precondition for NewRefiner: the forest is conforming (a completed closure;
// freshly built forests and forests after migration at quiescence qualify).
//
// Trees may be spliced out of and into the forest under a live refiner, at
// quiescence only: call RemoveTree before forest.RemoveTree (the tree must
// still be there to be walked) and InsertTree after forest.InsertTree, then
// Settle. RemoveTree leaves no record naming a vertex slot the forest may
// free with the tree, so an arriving tree can take such a slot at once; a
// splice costs the trees that moved plus Settle's pass over the records.
// Local vertex indices are never renumbered (see forest.Forest).
type Refiner struct {
	F *forest.Forest

	// edges holds the split marks and the leaf-edge incidence.
	edges edgeTable
	// queue holds possibly-nonconforming leaves awaiting processing.
	queue []forest.NodeID
	// newSplits records splits performed since the last TakeNewSplits, for
	// exchange with remote processors.
	newSplits []EdgeSplit

	// Coarsen's scratch, kept between calls (see Coarsen).
	usage, ncand  []int32
	cands, doomed []coarsenCand

	// ind memoizes est's indicator by NodeID; a negative entry is not
	// evaluated yet (see SetEstimator). bisect clears the entries of the
	// slots it takes, and InsertTree and RemoveTree drop them all, so an
	// entry always belongs to the node that holds its slot now.
	ind []float64
	est Estimator

	// The shortcuts of a repeated pass, live while the memo is (see
	// MarkTargets and CoarsenBelow): changed lists the nodes bisected or
	// un-bisected since the last target sweep, bisected the nodes bisected
	// since the last coarsening. targets is MarkTargets' scratch.
	changed, bisected passLog
	targets           []forest.NodeID
}

// passLog records the nodes that changed since the last pass, which ran under
// tol and level: what a repeat of that pass needs to examine. Outside a live
// log nothing is recorded, and the next pass examines everything.
type passLog struct {
	live  bool
	tol   float64
	level int32
	ids   []forest.NodeID
}

// holds reports whether the log is live and its last pass ran under tol and
// level.
func (l *passLog) holds(tol float64, level int32) bool {
	return l.live && l.tol == tol && l.level == level
}

// start begins a live log after a pass under tol and level, reusing the
// storage of the last.
func (l *passLog) start(tol float64, level int32) {
	*l = passLog{live: true, tol: tol, level: level, ids: l.ids[:0]}
}

// end drops the log: the next pass examines everything.
func (l *passLog) end() {
	l.live = false
	l.ids = l.ids[:0]
}

// add records id in a live log. A log longer than limit ends instead: the
// full pass it forces is then no dearer than the log, and the log's storage
// stays bounded by the mesh.
func (l *passLog) add(id forest.NodeID, limit int) {
	if !l.live {
		return
	}
	if l.ids = append(l.ids, id); len(l.ids) > limit {
		l.end()
	}
}

// dropMemo forgets every indicator, and with them both shortcuts.
func (r *Refiner) dropMemo() {
	r.ind = r.ind[:0]
	r.changed.end()
	r.bisected.end()
}

// NewRefiner builds a refiner over a conforming forest.
func NewRefiner(f *forest.Forest) *Refiner {
	r := &Refiner{F: f}
	f.VisitLeaves(r.addLeafEdges)
	return r
}

// RemoveTree takes tree root out of the edge records: its leaves out of the
// incidence, and the split marks off its refinement edges, whose records
// name vertex slots the forest frees with the tree unless a tree that stays
// uses them. It drops the indicator memo, which ends the shortcuts of a
// repeated pass. Call it at quiescence, before the forest removes the tree.
func (r *Refiner) RemoveTree(root int32) {
	rid := r.F.Root(root)
	if rid == forest.NoNode {
		panic(fmt.Sprintf("refine: RemoveTree(%d): tree not held", root))
	}
	r.removeSubtree(rid)
	r.dropMemo()
}

// removeSubtree is RemoveTree from node id down, leaves in VisitLeaves order.
func (r *Refiner) removeSubtree(id forest.NodeID) {
	n := r.F.Node(id)
	if n.IsLeaf() {
		r.removeLeafEdges(id)
		return
	}
	r.removeSubtree(n.Kids[0])
	r.removeSubtree(n.Kids[1])
	if e := r.edges.find(n.RefEdge[0], n.RefEdge[1]); e != nil {
		e.mid = -1
		r.edges.freeIfBare(e)
	}
}

// InsertTree enters the leaves of tree root, which the forest has just
// spliced in, into the edge incidence, and drops the indicator memo: the
// tree's nodes may hold slots whose entries another node wrote, and its leaves
// were never swept. Call it at quiescence.
func (r *Refiner) InsertTree(root int32) {
	r.F.VisitTreeLeaves(root, r.addLeafEdges)
	r.dropMemo()
}

// Settle brings the refiner, after trees were spliced out and in, to the
// state a fresh NewRefiner over the forest would have: it drops the split
// marks and frees the records they alone kept, in place. Call it at
// quiescence.
func (r *Refiner) Settle() {
	r.queue = r.queue[:0]
	r.newSplits = nil
	r.edges.dropMarks()
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

// addLeafEdges enters leaf id into the record of each of its edges.
func (r *Refiner) addLeafEdges(id forest.NodeID) {
	n := r.F.Node(id)
	nv := n.Nv()
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			e := r.edges.get(n.Verts[i], n.Verts[j])
			e.leaves = append(e.leaves, id)
		}
	}
}

func (r *Refiner) removeLeafEdges(id forest.NodeID) {
	n := r.F.Node(id)
	nv := n.Nv()
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			r.edges.removeLeaf(n.Verts[i], n.Verts[j], id)
		}
	}
}

// hasSplitEdge reports whether leaf id has any split edge (is nonconforming).
func (r *Refiner) hasSplitEdge(id forest.NodeID) bool {
	n := r.F.Node(id)
	nv := n.Nv()
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			if e := r.edges.find(n.Verts[i], n.Verts[j]); e != nil && e.mid >= 0 {
				return true
			}
		}
	}
	return false
}

// markSplit marks edge e as split, creating its midpoint vertex, and enqueues
// every leaf containing the edge. It is a no-op if the edge is already split.
func (r *Refiner) markSplit(e *edgeRec) {
	if e.mid >= 0 {
		return
	}
	f := r.F
	e.mid = f.InternMidpoint(e.a, e.b)
	r.newSplits = append(r.newSplits, MakeEdgeSplit(f.VIDs[e.a], f.VIDs[e.b]))
	r.queue = append(r.queue, e.leaves...)
}

// RefineLeaf requests bisection of leaf id: its longest edge is marked split,
// which the next Closure resolves (propagating as needed).
func (r *Refiner) RefineLeaf(id forest.NodeID) {
	n := r.F.Node(id)
	if n.Dead || !n.IsLeaf() {
		panic("refine: RefineLeaf on non-leaf")
	}
	r.markSplit(r.edges.get(r.F.LongestEdge(id)))
}

// findByID returns the record of the edge named by the canonical global pair
// s, or nil: a pair that is not canonical (A < B) names no edge.
func (r *Refiner) findByID(s EdgeSplit) *edgeRec {
	if s.A >= s.B {
		return nil
	}
	a, b := r.F.LookupVertex(s.A), r.F.LookupVertex(s.B)
	if a < 0 || b < 0 {
		return nil
	}
	return r.edges.find(a, b)
}

// MarkSplitByID applies a remotely originated split, identified by the global
// vertex IDs of its endpoints as a canonical pair (A < B, as MakeEdgeSplit
// and TakeNewSplits give it). It returns true if the edge exists among local
// leaf edges and was newly marked; false if unknown here (the caller should
// retain it and retry after further local refinement), already split, or not
// canonical.
func (r *Refiner) MarkSplitByID(s EdgeSplit) bool {
	// An unsplit record has a leaf: a record lives while it has either.
	e := r.findByID(s)
	if e == nil || e.mid >= 0 {
		return false
	}
	r.markSplit(e)
	return true
}

// IsSplit reports whether the edge named by the canonical global pair s
// (A < B) is currently marked split.
func (r *Refiner) IsSplit(s EdgeSplit) bool {
	e := r.findByID(s)
	return e != nil && e.mid >= 0
}

// TakeNewSplits drains and returns the record of splits performed since the
// previous call (for exchange with neighboring processors).
func (r *Refiner) TakeNewSplits() []EdgeSplit {
	out := r.newSplits
	r.newSplits = nil
	return out
}

// bisect splits leaf id at edge (a, b) whose midpoint is mid, updating the
// edge incidence and enqueuing children that are still nonconforming. The
// children may take slots that coarsening freed, so their indicator memo
// entries are cleared. id is logged as changed and as bisected.
//
// It looks up each edge once: the parent's, then those through the
// midpoint. Child 0 replaces b with mid and child 1 replaces a (see
// forest.Bisect), so k0 has the parent's edges without b, k1 those without
// a, and both have the edges from mid to the other vertices. Each record has
// the parent dropped, then k0 and then k1 appended, as far as they contain
// its edge: every list ends as removeLeafEdges(id), addLeafEdges(k0),
// addLeafEdges(k1) would leave it. The closure's order, and so every later
// NodeID, depends on that order.
func (r *Refiner) bisect(id forest.NodeID, a, b, mid int32) {
	n := r.F.Node(id)
	v, nv := n.Verts, n.Nv()
	k0, k1 := r.F.Bisect(id, a, b, mid)
	r.forget(k0)
	r.forget(k1)
	r.changed.add(id, r.F.NumLeaves())
	r.bisected.add(id, r.F.NumLeaves())
	var split0, split1 bool
	enter := func(e *edgeRec, in0, in1 bool) {
		if in0 {
			e.leaves = append(e.leaves, k0)
			split0 = split0 || e.mid >= 0
		}
		if in1 {
			e.leaves = append(e.leaves, k1)
			split1 = split1 || e.mid >= 0
		}
	}
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			u, w := v[i], v[j]
			e := r.edges.must(u, w, id)
			e.drop(id)
			// Every edge but (a, b) goes to a child; (a, b) keeps its mark.
			enter(e, u != b && w != b, u != a && w != a)
		}
	}
	for _, u := range v[:nv] {
		enter(r.edges.get(u, mid), u != b, u != a)
	}
	// Entering k1 marks nothing, so k0's answer is what it would be after.
	if split0 {
		r.queue = append(r.queue, k0)
	}
	if split1 {
		r.queue = append(r.queue, k1)
	}
}

// unbisect restores node pid, whose two children are leaves, as a leaf and
// clears the split mark of its refinement edge. pid is logged as changed.
//
// It is bisect in reverse, one lookup per edge: k0 and then k1 are dropped
// from each record that lists them, pid is appended to each of its own
// edges, and an edge through the midpoint is freed once bare. Every list
// ends as removeLeafEdges(k0), removeLeafEdges(k1), addLeafEdges(pid) would
// leave it.
func (r *Refiner) unbisect(pid forest.NodeID) {
	p := r.F.Node(pid)
	v, nv := p.Verts, p.Nv()
	a, b, mid := p.RefEdge[0], p.RefEdge[1], p.MidV
	k0, k1 := p.Kids[0], p.Kids[1]
	r.F.Unbisect(pid)
	r.changed.add(pid, r.F.NumLeaves())
	// leave takes out of edge {u, w}'s record the children it is in.
	leave := func(u, w int32, in0, in1 bool) *edgeRec {
		kid := k0
		if !in0 {
			kid = k1
		}
		e := r.edges.must(u, w, kid)
		if in0 {
			e.drop(k0)
		}
		if in1 {
			e.drop(k1)
		}
		return e
	}
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			u, w := v[i], v[j]
			var e *edgeRec
			if in0, in1 := u != b && w != b, u != a && w != a; in0 || in1 {
				e = leave(u, w, in0, in1)
			} else {
				// The refinement edge. Settle may have freed its record with
				// the mark; pid, which contains it, enters it either way.
				e = r.edges.get(u, w)
				e.mid = -1
			}
			e.leaves = append(e.leaves, pid)
		}
	}
	for _, u := range v[:nv] {
		r.edges.freeIfBare(leave(u, mid, u != b, u != a))
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
		if e := r.edges.find(a, b); e.mid >= 0 {
			r.bisect(id, a, b, e.mid)
			bisections++
		} else {
			// Propagate: the longest edge must split before this leaf can be
			// bisected conformally. Marking re-enqueues id, one of e's leaves.
			r.markSplit(e)
		}
	}
	return bisections
}

// CheckInvariants verifies (for tests) the edge table's structure (see
// edgeTable.check), the forest's vertex bookkeeping (see
// forest.CheckVertices), that no record names a free vertex slot, that the
// refiner is at quiescence — no leaf edge is split — and that the edge
// incidence is exactly what NewRefiner would build from the current leaves:
// every leaf is listed under each of its edges, and the lists hold nothing
// else. The fault reported is the first in record order for the free slots,
// then the first in leaf order, or else the one on the smallest edge by
// global IDs.
func (r *Refiner) CheckInvariants() error {
	if err := r.edges.check(); err != nil {
		return err
	}
	if err := r.F.CheckVertices(); err != nil {
		return err
	}
	for i := int32(0); i < r.edges.n; i++ {
		if e := r.edges.at(i); e.a >= 0 && (r.F.Uses(e.a) == 0 || r.F.Uses(e.b) == 0 || e.mid >= 0 && r.F.Uses(e.mid) == 0) {
			return fmt.Errorf("refine: record %d of edge {%d, %d}, midpoint %d, names a free vertex slot", i, e.a, e.b, e.mid)
		}
	}
	var fail error
	want := 0 // (leaf, edge) incidences
	r.F.VisitLeaves(func(id forest.NodeID) {
		r.forEachEdge(id, func(a, b int32) {
			want++
			if fail != nil {
				return
			}
			e := r.edges.find(a, b)
			if e != nil && e.mid >= 0 {
				fail = fmt.Errorf("refine: leaf %d has split edge %v", id, r.edgeSplit(a, b))
			} else if e == nil || !slices.Contains(e.leaves, id) {
				fail = fmt.Errorf("refine: leaf %d missing from the incidence of its edge %v", id, r.edgeSplit(a, b))
			}
		})
	})
	if fail != nil {
		return fail
	}
	// Every list holds its leaves; equal totals mean none holds more.
	got := 0
	for i := int32(0); i < r.edges.n; i++ {
		got += len(r.edges.at(i).leaves)
	}
	if got == want {
		return nil
	}
	var keys []uint64 // one per leaf edge, sorted: an edge's count is its run
	r.F.VisitLeaves(func(id forest.NodeID) {
		r.forEachEdge(id, func(a, b int32) { keys = append(keys, edgeKey(a, b)) })
	})
	slices.Sort(keys)
	count := func(k uint64) int {
		lo, _ := slices.BinarySearch(keys, k)
		hi, _ := slices.BinarySearch(keys, k+1)
		return hi - lo
	}
	var worst *edgeRec
	for i := int32(0); i < r.edges.n; i++ {
		e := r.edges.at(i)
		if e.a >= 0 && len(e.leaves) != count(e.key()) &&
			(worst == nil || r.edgeSplit(e.a, e.b).Compare(r.edgeSplit(worst.a, worst.b)) < 0) {
			worst = e
		}
	}
	if worst != nil {
		return fmt.Errorf("refine: edge %v incidence %d, want %d", r.edgeSplit(worst.a, worst.b), len(worst.leaves), count(worst.key()))
	}
	return fmt.Errorf("refine: incidence holds %d entries, the leaves have %d", got, want)
}

// edgeSplit names edge {a, b} by the global IDs of its endpoints.
func (r *Refiner) edgeSplit(a, b int32) EdgeSplit {
	return MakeEdgeSplit(r.F.VIDs[a], r.F.VIDs[b])
}
