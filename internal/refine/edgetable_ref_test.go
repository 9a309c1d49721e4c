package refine

import (
	"cmp"
	"slices"

	"pared/internal/forest"
)

// refRefiner is the refiner's bookkeeping as it was before the edge table:
// split marks and leaf-edge incidence in two maps keyed by global vertex-ID
// pairs, kept verbatim as the oracle. TestEdgeTableMatchesReference drives it
// and a Refiner over twin forests through the same random chains and holds
// the two to identical forests and identical answers.
type refRefiner struct {
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

func newRefRefiner(f *forest.Forest) *refRefiner {
	r := &refRefiner{
		F:          f,
		split:      make(map[EdgeSplit]int32),
		edgeLeaves: make(map[EdgeSplit][]forest.NodeID),
	}
	f.VisitLeaves(func(id forest.NodeID) { r.addLeafEdges(id) })
	return r
}

// RemoveTree takes tree root out of the edge incidence and drops the split
// marks of its refinement edges. Call it at quiescence, before the forest
// removes the tree.
func (r *refRefiner) RemoveTree(root int32) {
	var walk func(id forest.NodeID)
	walk = func(id forest.NodeID) {
		n := r.F.Node(id)
		if n.IsLeaf() {
			r.removeLeafEdges(id)
			return
		}
		walk(n.Kids[0])
		walk(n.Kids[1])
		delete(r.split, r.key(n.RefEdge[0], n.RefEdge[1]))
	}
	walk(r.F.Root(root))
}

// InsertTree enters the leaves of tree root, which the forest has just
// spliced in, into the edge incidence. Call it at quiescence.
func (r *refRefiner) InsertTree(root int32) { r.F.VisitTreeLeaves(root, r.addLeafEdges) }

// key returns the canonical edge key for local vertices a, b.
func (r *refRefiner) key(a, b int32) EdgeSplit {
	return MakeEdgeSplit(r.F.VIDs[a], r.F.VIDs[b])
}

// forEachEdge enumerates the local vertex pairs of node id's edges.
func (r *refRefiner) forEachEdge(id forest.NodeID, fn func(a, b int32)) {
	n := r.F.Node(id)
	nv := n.Nv()
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			fn(n.Verts[i], n.Verts[j])
		}
	}
}

func (r *refRefiner) addLeafEdges(id forest.NodeID) {
	r.forEachEdge(id, func(a, b int32) {
		k := r.key(a, b)
		r.edgeLeaves[k] = append(r.edgeLeaves[k], id)
	})
}

func (r *refRefiner) removeLeafEdges(id forest.NodeID) {
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
func (r *refRefiner) hasSplitEdge(id forest.NodeID) bool {
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
func (r *refRefiner) markSplit(a, b int32) {
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
func (r *refRefiner) RefineLeaf(id forest.NodeID) {
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
func (r *refRefiner) MarkSplitByID(s EdgeSplit) bool {
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
func (r *refRefiner) IsSplit(s EdgeSplit) bool {
	_, ok := r.split[s]
	return ok
}

// TakeNewSplits drains and returns the record of splits performed since the
// previous call (for exchange with neighboring processors).
func (r *refRefiner) TakeNewSplits() []EdgeSplit {
	out := r.newSplits
	r.newSplits = nil
	return out
}

// bisect splits leaf id at edge (a, b) whose midpoint is mid, updating the
// edge-incidence maps and enqueuing children that are still nonconforming.
func (r *refRefiner) bisect(id forest.NodeID, a, b, mid int32) {
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

// Closure runs the conformity loop to local quiescence: afterwards no leaf
// has a split edge. It returns the number of bisections performed.
func (r *refRefiner) Closure() int {
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

func (r *refRefiner) Coarsen(wantCoarsen func(id forest.NodeID) bool) int {
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
				r.removeLeafEdges(k)
			}
			for _, v := range p.Verts[:p.Nv()] {
				usage[v]++
			}
			delete(r.split, r.key(p.RefEdge[0], p.RefEdge[1]))
			f.Unbisect(c.parent)
			r.addLeafEdges(c.parent)
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

func (r *refRefiner) RefineLeafLEPP(id forest.NodeID) int {
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
			key := r.key(a, b)
			// Find a sharer of the edge whose own longest edge dominates.
			next := forest.NoNode
			for _, s := range r.edgeLeaves[key] {
				if s == cur {
					continue
				}
				sa, sb := f.LongestEdge(s)
				if r.key(sa, sb) != key {
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
			r.markSplit(a, b)
			mid := r.split[key]
			sharers := append([]forest.NodeID(nil), r.edgeLeaves[key]...)
			for _, s := range sharers {
				// Recover the edge's local indices within s (interning is
				// shared, so a and b are valid for every sharer).
				r.bisect(s, a, b, mid)
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
