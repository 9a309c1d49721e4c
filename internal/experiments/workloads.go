package experiments

import (
	"pared/internal/forest"
	"pared/internal/graph"
	"pared/internal/mesh"
	"pared/internal/refine"
)

// Snapshot captures the mesh state after one adaptation pass, with everything
// the partitioning experiments consume.
type Snapshot struct {
	// Leaf is the extracted leaf mesh with back-references.
	Leaf *forest.LeafMeshResult
	// G is the weighted coarse dual graph of M⁰ at this state.
	G *graph.Graph
	// Fine is the unit-weight dual graph of the leaf mesh.
	Fine *graph.Graph
	// ParentLeaf maps each leaf to the element of the previous snapshot it
	// descends from (or that descends from it, after coarsening); -1 at the
	// first snapshot. Element data inherited along this map defines which
	// processor an element "is on" before repartitioning.
	ParentLeaf []int32
	// MaxLevel is the deepest leaf refinement level.
	MaxLevel int32
}

// takeSnapshot extracts a snapshot and links it to the previous one.
func takeSnapshot(f *forest.Forest, numRoots int, prev *Snapshot) *Snapshot {
	s := &Snapshot{Leaf: f.LeafMesh(), MaxLevel: f.MaxLevel()}
	s.G = graph.CoarseDual(numRoots, s.Leaf.Mesh, s.Leaf.LeafRoot)
	s.Fine = graph.FromDual(s.Leaf.Mesh)
	s.ParentLeaf = make([]int32, len(s.Leaf.Leaf2Node))
	if prev == nil {
		for i := range s.ParentLeaf {
			s.ParentLeaf[i] = -1
		}
		return s
	}
	// prevIdx is the previous snapshot's leaf index of each node, or -1.
	prevIdx := make([]int32, len(f.Nodes))
	for i := range prevIdx {
		prevIdx[i] = -1
	}
	for i, id := range prev.Leaf.Leaf2Node {
		prevIdx[id] = int32(i)
	}
	for i, id := range s.Leaf.Leaf2Node {
		s.ParentLeaf[i] = findRelative(f, id, prevIdx)
	}
	return s
}

// findRelative walks up from id to the first node that was a leaf in the
// previous snapshot. Valid only for refine-only sequences: coarsening frees
// node slots for reuse, invalidating NodeID-based matching — the transient
// experiment uses InheritByLocation instead.
func findRelative(f *forest.Forest, id forest.NodeID, prevIdx []int32) int32 {
	for n := id; n != forest.NoNode; n = f.Node(n).Parent {
		if i := prevIdx[n]; i >= 0 {
			return i
		}
	}
	return -1
}

// InheritByLocation maps each element of cur to the element of prev (within
// the same tree) containing its centroid — the coarsening-safe way to decide
// which processor an element "was on". Falls back to the nearest centroid in
// the tree when the point-location test is inconclusive at boundaries.
func InheritByLocation(prev, cur *Snapshot) []int32 {
	byRoot := make([][]int32, prev.G.N()) // each tree's previous leaves
	for i, r := range prev.Leaf.LeafRoot {
		byRoot[r] = append(byRoot[r], int32(i))
	}
	out := make([]int32, len(cur.Leaf.LeafRoot))
	for i, r := range cur.Leaf.LeafRoot {
		c := cur.Leaf.Mesh.Centroid(i)
		out[i] = -1
		bestD := -1.0
		for _, j := range byRoot[r] {
			if prev.Leaf.Mesh.Contains(int(j), c) {
				out[i] = j
				bestD = -1
				break
			}
			d := prev.Leaf.Mesh.Centroid(int(j)).Dist2(c)
			if out[i] < 0 || d < bestD {
				out[i] = j
				bestD = d
			}
		}
	}
	return out
}

// InheritParts maps a previous assignment of elements through ParentLeaf:
// each element lands on the processor its ancestor occupied. Elements with no
// ancestor (-1) get part 0.
func (s *Snapshot) InheritParts(prevParts []int32) []int32 {
	out := make([]int32, len(s.ParentLeaf))
	for i, p := range s.ParentLeaf {
		if p >= 0 {
			out[i] = prevParts[p]
		}
	}
	return out
}

// RootParts converts a coarse-graph assignment (per tree) into a fine
// assignment (per leaf element).
func (s *Snapshot) RootParts(rootAssign []int32) []int32 {
	out := make([]int32, len(s.Leaf.LeafRoot))
	for i, r := range s.Leaf.LeafRoot {
		out[i] = rootAssign[r]
	}
	return out
}

// AdaptSeries adapts m0 with the estimator until no leaf exceeds tol (or
// maxPasses), snapshotting after the initial state and each pass.
func AdaptSeries(m0 *mesh.Mesh, est refine.Estimator, tol float64, maxLevel int32, maxPasses int) []*Snapshot {
	f := forest.FromMesh(m0)
	r := refine.NewRefiner(f)
	snaps := []*Snapshot{takeSnapshot(f, m0.NumElems(), nil)}
	for pass := 0; pass < maxPasses; pass++ {
		res := refine.AdaptOnce(r, est, tol, 0, maxLevel)
		if res.Flagged == 0 {
			break
		}
		snaps = append(snaps, takeSnapshot(f, m0.NumElems(), snaps[len(snaps)-1]))
	}
	return snaps
}

// GrowthSeries produces the Figure 4/5 workload: a sequence of meshes of
// roughly doubling size, where each entry holds the mesh before (Prev) and
// after (Next) a small incremental refinement — the paper's M^{t−1} → M^t.
type GrowthStep struct {
	Prev, Next *Snapshot
}

// GrowthSeries adapts with a decreasing L∞ tolerance, the paper's actual
// criterion, so refinement spreads over the high-error region instead of
// spiking a few elements. After reaching each target size it tightens the
// tolerance slightly for one pass to create the M^{t−1} → M^t pair (the
// paper's M^t has a few percent more elements than M^{t−1}).
func GrowthSeries(m0 *mesh.Mesh, est refine.Estimator, sizes []int, maxLevel int32) []GrowthStep {
	f := forest.FromMesh(m0)
	r := refine.NewRefiner(f)
	var steps []GrowthStep
	var prev *Snapshot
	// Start from the largest indicator so the first pass refines something.
	tol := 0.0
	f.VisitLeaves(func(id forest.NodeID) {
		if v := est.Indicator(f, id); v > tol {
			tol = v
		}
	})
	tol *= 0.7
	for _, target := range sizes {
		for f.NumLeaves() < target {
			res := refine.AdaptOnce(r, est, tol, 0, maxLevel)
			if res.Refined == 0 {
				tol *= 0.9
			}
		}
		// Converge fully at the current tolerance so M^{t−1} is a settled
		// mesh, exactly like the paper's (no half-finished refinement band).
		for {
			if res := refine.AdaptOnce(r, est, tol, 0, maxLevel); res.Flagged == 0 {
				break
			}
		}
		prev = takeSnapshot(f, m0.NumElems(), prev)
		// The small refinement: tighten the tolerance just enough to flag a
		// thin band. The paper's steps add a few hundred elements regardless
		// of mesh size (175–301 on meshes of 5k–104k), so the decrement gets
		// finer as the mesh grows.
		small := tol
		dec := 0.97
		switch {
		case target > 60000:
			dec = 0.995
		case target > 20000:
			dec = 0.99
		}
		for passes := 0; passes < 400; passes++ {
			small *= dec
			if res := refine.AdaptOnce(r, est, small, 0, maxLevel); res.Refined > 0 {
				break
			}
		}
		tol = small
		next := takeSnapshot(f, m0.NumElems(), prev)
		steps = append(steps, GrowthStep{Prev: prev, Next: next})
		prev = next
	}
	return steps
}

// growthMaxLevel caps refinement depth in the growth-series workloads to keep
// trees light against parts. The paper's Figure 5 reports ε < 0.01 at p = 64
// on a 5269-element mesh, which needs trees of at most a few dozen elements;
// without the cap the L∞ band digs arbitrarily deep at the corner and single
// trees outweigh whole parts. The cap does not buy that balance here: in
// three p = 64 rows one tree still outweighs an average part, and
// forceBalance, which moves one vertex at a time and returns when no vertex
// of the heaviest part fits, leaves 9 rows of the full-scale 2D Figure 5 at
// 6.7–55 % (ROADMAP item 11).
const growthMaxLevel = 9
