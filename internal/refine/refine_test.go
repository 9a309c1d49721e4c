package refine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/mesh"
	"pared/internal/meshgen"
)

// checkMesh asserts the forest's leaf mesh is valid and conforming.
func checkMesh(t *testing.T, f *forest.Forest) *mesh.Mesh {
	t.Helper()
	lm := f.LeafMesh().Mesh
	if err := lm.Validate(); err != nil {
		t.Fatalf("leaf mesh invalid: %v", err)
	}
	if err := lm.CheckConforming(); err != nil {
		t.Fatalf("leaf mesh nonconforming: %v", err)
	}
	return lm
}

func TestRefineSingleTriangle(t *testing.T) {
	m := meshgen.RectTri(1, 1, 0, 0, 1, 1) // 2 triangles sharing the diagonal
	f := forest.FromMesh(m)
	r := NewRefiner(f)
	r.RefineLeaf(f.Root(0))
	n := r.Closure()
	// The diagonal is the longest edge of both triangles, so refining one
	// bisects both (propagation across the shared edge).
	if n != 2 {
		t.Errorf("bisections = %d, want 2", n)
	}
	if f.NumLeaves() != 4 {
		t.Errorf("leaves = %d, want 4", f.NumLeaves())
	}
	checkMesh(t, f)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUniformRefinement2D(t *testing.T) {
	m := meshgen.RectTri(4, 4, -1, -1, 1, 1)
	f := forest.FromMesh(m)
	r := NewRefiner(f)
	vol := m.TotalVolume()
	for round := 0; round < 3; round++ {
		for _, id := range f.Leaves() {
			r.RefineLeaf(id)
		}
		r.Closure()
		lm := checkMesh(t, f)
		if math.Abs(lm.TotalVolume()-vol) > 1e-9 {
			t.Fatalf("volume not conserved: %v vs %v", lm.TotalVolume(), vol)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// Every original leaf was bisected at least once per round.
	if f.NumLeaves() < m.NumElems()*8 {
		t.Errorf("leaves = %d, want >= %d", f.NumLeaves(), m.NumElems()*8)
	}
}

func TestUniformRefinement3D(t *testing.T) {
	m := meshgen.BoxTet(2, 2, 2, 0, 0, 0, 1, 1, 1)
	f := forest.FromMesh(m)
	r := NewRefiner(f)
	vol := m.TotalVolume()
	for round := 0; round < 2; round++ {
		for _, id := range f.Leaves() {
			r.RefineLeaf(id)
		}
		r.Closure()
		lm := checkMesh(t, f)
		if math.Abs(lm.TotalVolume()-vol) > 1e-9 {
			t.Fatalf("volume not conserved: %v vs %v", lm.TotalVolume(), vol)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if f.NumLeaves() < m.NumElems()*4 {
		t.Errorf("leaves = %d, want >= %d", f.NumLeaves(), m.NumElems()*4)
	}
}

func TestRandomRefinementConforming(t *testing.T) {
	for _, dim := range []string{"2d", "3d"} {
		var m *mesh.Mesh
		if dim == "2d" {
			m = meshgen.RectTri(5, 5, -1, -1, 1, 1)
		} else {
			m = meshgen.BoxTet(2, 2, 2, -1, -1, -1, 1, 1, 1)
		}
		f := forest.FromMesh(m)
		r := NewRefiner(f)
		rng := rand.New(rand.NewSource(42))
		for round := 0; round < 6; round++ {
			leaves := f.Leaves()
			for i := 0; i < 1+len(leaves)/10; i++ {
				r.RefineLeaf(leaves[rng.Intn(len(leaves))])
			}
			r.Closure()
			checkMesh(t, f)
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("%s round %d: %v", dim, round, err)
			}
		}
	}
}

func TestRefinementDeterministicUnderOrder(t *testing.T) {
	m := meshgen.RectTri(4, 4, -1, -1, 1, 1)
	targets := []int{0, 7, 12, 25, 3, 30}

	run := func(order []int) [][4]forest.VertexID {
		f := forest.FromMesh(m)
		r := NewRefiner(f)
		roots := f.Roots()
		for _, i := range order {
			r.RefineLeaf(f.Root(roots[i]))
			r.Closure() // interleave closures to vary processing order
		}
		return f.CanonicalLeaves()
	}
	a := run(targets)
	rev := make([]int, len(targets))
	for i, v := range targets {
		rev[len(targets)-1-i] = v
	}
	b := run(rev)
	if len(a) != len(b) {
		t.Fatalf("leaf counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("canonical leaves differ at %d", i)
		}
	}
}

func TestCoarsenRevertsUniformRefinement(t *testing.T) {
	m := meshgen.RectTri(3, 3, 0, 0, 1, 1)
	f := forest.FromMesh(m)
	r := NewRefiner(f)
	for round := 0; round < 2; round++ {
		for _, id := range f.Leaves() {
			r.RefineLeaf(id)
		}
		r.Closure()
	}
	refined := f.NumLeaves()
	if refined <= m.NumElems() {
		t.Fatal("refinement did nothing")
	}
	n := r.Coarsen(func(forest.NodeID) bool { return true })
	if n == 0 {
		t.Fatal("coarsening removed nothing")
	}
	if f.NumLeaves() != m.NumElems() {
		t.Errorf("leaves after full coarsen = %d, want %d", f.NumLeaves(), m.NumElems())
	}
	checkMesh(t, f)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoarsenRespectsConformity(t *testing.T) {
	// Refine a local spot deeply, then ask to coarsen only some leaves; the
	// result must stay conforming regardless.
	m := meshgen.RectTri(4, 4, -1, -1, 1, 1)
	f := forest.FromMesh(m)
	r := NewRefiner(f)
	corner := geom.Vec3{X: 1, Y: 1}
	for round := 0; round < 5; round++ {
		lm := f.LeafMesh()
		for e, id := range lm.Leaf2Node {
			if lm.Mesh.Centroid(e).Dist(corner) < 0.5 {
				r.RefineLeaf(id)
			}
		}
		r.Closure()
	}
	before := f.NumLeaves()
	rng := rand.New(rand.NewSource(7))
	r.Coarsen(func(id forest.NodeID) bool { return rng.Intn(2) == 0 })
	checkMesh(t, f)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.NumLeaves() > before {
		t.Error("coarsening increased leaf count")
	}
}

func TestCoarsen3D(t *testing.T) {
	m := meshgen.BoxTet(2, 2, 2, 0, 0, 0, 1, 1, 1)
	f := forest.FromMesh(m)
	r := NewRefiner(f)
	for _, id := range f.Leaves() {
		r.RefineLeaf(id)
	}
	r.Closure()
	r.Coarsen(func(forest.NodeID) bool { return true })
	if f.NumLeaves() != m.NumElems() {
		t.Errorf("leaves = %d, want %d", f.NumLeaves(), m.NumElems())
	}
	checkMesh(t, f)
}

// TestCheckInvariantsFaultIsRunIndependent: of several faults CheckInvariants
// names the first in leaf order, or the one on the smallest edge — the same
// text on every call, whatever order the edge index iterates in.
func TestCheckInvariantsFaultIsRunIndependent(t *testing.T) {
	f := forest.FromMesh(meshgen.RectTri(4, 4, -1, -1, 1, 1))
	r := NewRefiner(f)
	for _, id := range f.Leaves() {
		r.RefineLeaf(id)
	}
	r.Closure()
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	leaves := f.Leaves()

	// Stale entries: every third leaf entered twice. The smallest edge among
	// theirs is the one to be named.
	smallest := EdgeSplit{A: ^forest.VertexID(0)}
	for i := 0; i < len(leaves); i += 3 {
		r.addLeafEdges(leaves[i])
		r.forEachEdge(leaves[i], func(a, b int32) {
			if k := r.edgeSplit(a, b); k.Compare(smallest) < 0 {
				smallest = k
			}
		})
	}
	first := r.CheckInvariants()
	if first == nil || !strings.Contains(first.Error(), fmt.Sprintf("edge %v incidence", smallest)) {
		t.Fatalf("stale entries reported as %v, want the fault on the smallest edge %v", first, smallest)
	}
	for i := 0; i < 20; i++ {
		if err := r.CheckInvariants(); err.Error() != first.Error() {
			t.Fatalf("call %d reports %q, the first call %q", i, err, first)
		}
	}
	for i := 0; i < len(leaves); i += 3 {
		r.removeLeafEdges(leaves[i])
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("after taking the stale entries out again: %v", err)
	}

	// Missing entries: the first leaf in sweep order that lacks one is named.
	r.removeLeafEdges(leaves[7])
	r.removeLeafEdges(leaves[2])
	want := fmt.Sprintf("leaf %d missing", leaves[2])
	if err := r.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("missing entries reported as %v, want %q", err, want)
	}
}

func TestMarkSplitByID(t *testing.T) {
	m := meshgen.RectTri(2, 2, 0, 0, 1, 1)
	f := forest.FromMesh(m)
	r := NewRefiner(f)
	// Split an actual leaf edge by global IDs, as a remote rank would.
	root := f.Root(0)
	a, b := f.LongestEdge(root)
	s := MakeEdgeSplit(f.VIDs[a], f.VIDs[b])
	if !r.MarkSplitByID(s) {
		t.Fatal("known edge not marked")
	}
	if r.MarkSplitByID(s) {
		t.Error("double-mark should return false")
	}
	if r.Closure() == 0 {
		t.Error("closure after remote mark should bisect")
	}
	checkMesh(t, f)
	// Unknown edge: not applicable.
	if r.MarkSplitByID(MakeEdgeSplit(1<<40, 1<<41)) {
		t.Error("unknown edge should not be marked")
	}
}

func TestTakeNewSplits(t *testing.T) {
	m := meshgen.RectTri(2, 2, 0, 0, 1, 1)
	f := forest.FromMesh(m)
	r := NewRefiner(f)
	r.RefineLeaf(f.Root(0))
	r.Closure()
	s := r.TakeNewSplits()
	if len(s) == 0 {
		t.Fatal("no splits recorded")
	}
	if len(r.TakeNewSplits()) != 0 {
		t.Error("TakeNewSplits should drain")
	}
}

func TestAdaptToToleranceCornerProblem(t *testing.T) {
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	f := forest.FromMesh(m)
	corner := geom.Vec3{X: 1, Y: 1}
	// Indicator large near the (1,1) corner, decaying with distance and size.
	est := EstimatorFunc(func(f *forest.Forest, id forest.NodeID) float64 {
		n := f.Node(id)
		var c geom.Vec3
		for i := 0; i < n.Nv(); i++ {
			c = c.Add(f.Coords[n.Verts[i]])
		}
		c = c.Scale(1.0 / float64(n.Nv()))
		size := math.Pow(0.5, float64(n.Level))
		return size / (0.05 + c.Dist2(corner))
	})
	r, passes := AdaptToTolerance(f, est, 1.0, 10, 20)
	if passes == 0 || passes == 20 {
		t.Errorf("passes = %d, expected convergence in (0,20)", passes)
	}
	checkMesh(t, f)
	// Refinement should concentrate near the corner: the deepest leaves are
	// close to it.
	maxLevel := f.MaxLevel()
	if maxLevel < 2 {
		t.Fatalf("max level = %d, expected deep refinement", maxLevel)
	}
	f.VisitLeaves(func(id forest.NodeID) {
		n := f.Node(id)
		if n.Level == maxLevel {
			var c geom.Vec3
			for i := 0; i < 3; i++ {
				c = c.Add(f.Coords[n.Verts[i]])
			}
			c = c.Scale(1.0 / 3)
			if c.Dist(corner) > 1.0 {
				t.Errorf("deepest leaf far from corner: %v", c)
			}
		}
	})
	_ = r
}

func TestAdaptOnceWithCoarsening(t *testing.T) {
	// Move the refinement region: refine near A, then adapt toward B with
	// coarsening enabled; the mesh should shrink near A.
	m := meshgen.RectTri(6, 6, -1, -1, 1, 1)
	f := forest.FromMesh(m)
	peak := geom.Vec3{X: -0.5, Y: -0.5}
	mk := func(p geom.Vec3) Estimator {
		return EstimatorFunc(func(f *forest.Forest, id forest.NodeID) float64 {
			n := f.Node(id)
			var c geom.Vec3
			for i := 0; i < 3; i++ {
				c = c.Add(f.Coords[n.Verts[i]])
			}
			c = c.Scale(1.0 / 3)
			size := math.Pow(0.5, float64(n.Level))
			return size / (0.02 + c.Dist2(p))
		})
	}
	r := NewRefiner(f)
	for i := 0; i < 6; i++ {
		AdaptOnce(r, mk(peak), 1.0, 0, 12)
	}
	atA := f.NumLeaves()
	peak2 := geom.Vec3{X: 0.5, Y: 0.5}
	var coarsened int
	for i := 0; i < 8; i++ {
		res := AdaptOnce(r, mk(peak2), 1.0, 0.25, 12)
		coarsened += res.Coarsened
	}
	checkMesh(t, f)
	if coarsened == 0 {
		t.Error("no coarsening while tracking a moving peak")
	}
	t.Logf("leaves: at A %d, after move %d (coarsened %d)", atA, f.NumLeaves(), coarsened)
}

func TestBisectionPreservesQuality(t *testing.T) {
	// Rivara's theorem: longest-edge bisection keeps the minimum angle
	// bounded away from zero regardless of depth. Proxy: the aspect ratio
	// (shortest/longest edge) of every leaf stays above a fixed fraction of
	// the initial mesh's worst aspect after many localized refinement rounds.
	m := meshgen.RectTri(4, 4, -1, -1, 1, 1)
	q0 := m.Quality()
	f := forest.FromMesh(m)
	r := NewRefiner(f)
	corner := geom.Vec3{X: 1, Y: 1}
	for round := 0; round < 10; round++ {
		lm := f.LeafMesh()
		for e, id := range lm.Leaf2Node {
			if lm.Mesh.Centroid(e).Dist(corner) < 0.45 {
				r.RefineLeaf(id)
			}
		}
		r.Closure()
	}
	if f.MaxLevel() < 8 {
		t.Fatalf("refinement too shallow (depth %d) for a quality test", f.MaxLevel())
	}
	q := f.LeafMesh().Mesh.Quality()
	if q.MinAspect < q0.MinAspect/4 {
		t.Errorf("quality degraded: min aspect %v -> %v after deep refinement", q0.MinAspect, q.MinAspect)
	}
	t.Logf("aspect: initial min %.3f, after 10 rounds min %.3f (depth %d)",
		q0.MinAspect, q.MinAspect, f.MaxLevel())
}
