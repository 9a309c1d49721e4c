package refine

import (
	"math"
	"testing"

	"pared/internal/check"
	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/meshgen"
)

// nodeSig names the element a node slot holds: its vertices by global ID and
// its level. Two nodes that took the same slot one after the other differ in
// it.
type nodeSig struct {
	verts [4]forest.VertexID
	level int32
}

func sigOf(f *forest.Forest, id forest.NodeID) nodeSig {
	n := f.Node(id)
	s := nodeSig{level: n.Level}
	for i := 0; i < n.Nv(); i++ {
		s.verts[i] = f.VIDs[n.Verts[i]]
	}
	return s
}

// countingEst is a comparable estimator peaked at one point. It counts its
// evaluations and records, per node slot, the element it last evaluated
// there.
type countingEst struct {
	peak  geom.Vec3
	calls int
	seen  []nodeSig
}

func (e *countingEst) Indicator(f *forest.Forest, id forest.NodeID) float64 {
	e.calls++
	for len(e.seen) <= int(id) {
		e.seen = append(e.seen, nodeSig{})
	}
	e.seen[id] = sigOf(f, id)
	n := f.Node(id)
	var c geom.Vec3
	for i := 0; i < n.Nv(); i++ {
		c = c.Add(f.Coords[n.Verts[i]])
	}
	c = c.Scale(1 / float64(n.Nv()))
	return math.Pow(0.5, float64(n.Level)) / (0.02 + c.Dist2(e.peak))
}

// checkMemo fails unless every memo entry of a live node was written by an
// evaluation of that node: no entry survives its slot being taken again.
func checkMemo(t *testing.T, r *Refiner, est *countingEst, when string) {
	t.Helper()
	for id, v := range r.ind {
		if v < 0 || id >= len(r.F.Nodes) || r.F.Nodes[id].Dead {
			continue
		}
		if got, want := est.seen[id], sigOf(r.F, forest.NodeID(id)); got != want {
			t.Fatalf("%s: node %d holds a memo entry of %v, but is %v", when, id, got, want)
		}
	}
}

// adaptedAt returns a refiner over a 6×6 grid adapted to a peak at p until a
// pass flags nothing.
func adaptedAt(t *testing.T, p geom.Vec3) *Refiner {
	t.Helper()
	r := NewRefiner(forest.FromMesh(meshgen.RectTri(6, 6, -1, -1, 1, 1)))
	est := &countingEst{peak: p}
	for pass := 0; ; pass++ {
		if pass == 20 {
			t.Fatal("no fixed point in 20 passes")
		}
		if AdaptOnce(r, est, 1, 0, 12).Flagged == 0 {
			return r
		}
	}
}

// TestAdaptOnceFixedPointEvaluatesNothing: once a pass with coarsening
// changes nothing, the same estimator passed again is asked about no node,
// and the mesh stays. A fresh estimator at the same peak is asked about every
// leaf again.
func TestAdaptOnceFixedPointEvaluatesNothing(t *testing.T) {
	r := adaptedAt(t, geom.Vec3{X: -0.5, Y: -0.5})
	est := &countingEst{peak: geom.Vec3{X: 0.5, Y: 0.5}}
	for pass := 0; ; pass++ {
		if pass == 20 {
			t.Fatal("no fixed point in 20 passes")
		}
		if res := AdaptOnce(r, est, 1, 0.25, 12); res.Refined == 0 && res.Coarsened == 0 {
			break
		}
	}
	leaves, calls := r.F.NumLeaves(), est.calls
	if res := AdaptOnce(r, est, 1, 0.25, 12); res != (AdaptResult{}) {
		t.Fatalf("a pass after the fixed point changed the mesh: %+v", res)
	}
	// Under paredassert the memo re-evaluates every value it reuses.
	if (est.calls != calls && !check.Enabled) || r.F.NumLeaves() != leaves {
		t.Errorf("a pass after the fixed point made %d estimator calls (want 0), leaves %d → %d",
			est.calls-calls, leaves, r.F.NumLeaves())
	}
	fresh := &countingEst{peak: est.peak}
	AdaptOnce(r, fresh, 1, 0.25, 12)
	if fresh.calls < leaves {
		t.Errorf("a new estimator made %d calls over %d leaves", fresh.calls, leaves)
	}
}

// TestMemoSlotsReusedAreScoredFresh moves the peak once and then adapts with
// one estimator: each pass coarsens behind the peak, freeing node slots
// whose indicators it has just read, and the next pass's refinement ahead of
// it takes those slots again. No memo entry may outlive its node, and the
// meshes must be those of passes that evaluate every leaf afresh.
func TestMemoSlotsReusedAreScoredFresh(t *testing.T) {
	a, b := geom.Vec3{X: -0.5, Y: -0.5}, geom.Vec3{X: 0.5, Y: 0.5}
	r, ref := adaptedAt(t, a), adaptedAt(t, a)
	est := &countingEst{peak: b}
	reused := 0
	for pass := 0; pass < 6; pass++ {
		var dead []bool
		for _, n := range r.F.Nodes {
			dead = append(dead, n.Dead)
		}
		got := AdaptOnce(r, est, 1, 0.25, 12)
		// A new estimator every pass: nothing carries over.
		want := AdaptOnce(ref, &countingEst{peak: b}, 1, 0.25, 12)
		if got != want {
			t.Fatalf("pass %d: %+v, evaluating afresh gives %+v", pass, got, want)
		}
		checkMemo(t, r, est, "after a pass")
		for id, d := range dead {
			if d && !r.F.Nodes[id].Dead {
				reused++
			}
		}
	}
	if reused == 0 {
		t.Fatal("no pass took a slot freed earlier: the sequence tests nothing")
	}
	if g, w := r.F.CanonicalLeaves(), ref.F.CanonicalLeaves(); len(g) != len(w) {
		t.Fatalf("%d leaves, evaluating afresh gives %d", len(g), len(w))
	} else {
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("leaf %d differs from the mesh evaluating afresh gives", i)
			}
		}
	}
}

// TestMemoDroppedOnSplice moves a tree into a forest whose free node slots
// hold entries the memo wrote: the arriving tree takes them.
func TestMemoDroppedOnSplice(t *testing.T) {
	a, b := geom.Vec3{X: -0.5, Y: -0.5}, geom.Vec3{X: 0.5, Y: 0.5}
	src, dst := adaptedAt(t, a), adaptedAt(t, a)
	// The tree that moves: the first one the destination holds.
	root := dst.F.Roots()[0]
	dst.RemoveTree(root)
	dst.F.RemoveTree(root)
	dst.Settle()
	est := &countingEst{peak: b}
	AdaptOnce(dst, est, 1, 0.25, 12) // coarsens near a, reading what it frees
	free := 0
	for _, n := range dst.F.Nodes {
		if n.Dead {
			free++
		}
	}
	if free == 0 {
		t.Fatal("coarsening freed no slot: the splice tests nothing")
	}
	if err := dst.F.InsertTree(src.F.ExtractTree(root)); err != nil {
		t.Fatal(err)
	}
	dst.InsertTree(root)
	dst.Settle()
	checkMemo(t, dst, est, "after InsertTree")
	AdaptOnce(dst, est, 1, 0.25, 12)
	checkMemo(t, dst, est, "after the next pass")
}

// ifaceEst is comparable by type but holds an estimator that may not be: ==
// on two of them holding the same EstimatorFunc type panics.
type ifaceEst struct{ inner Estimator }

func (e ifaceEst) Indicator(f *forest.Forest, id forest.NodeID) float64 {
	return e.inner.Indicator(f, id)
}

// TestUncomparableEstimatorServesOneCall passes the same EstimatorFunc, and
// the same struct value holding it, to two passes in a row: neither is
// compared (which would panic), and the second pass asks about every leaf
// again.
func TestUncomparableEstimatorServesOneCall(t *testing.T) {
	r := adaptedAt(t, geom.Vec3{X: -0.5, Y: -0.5})
	counter := &countingEst{peak: geom.Vec3{X: -0.5, Y: -0.5}}
	fn := EstimatorFunc(counter.Indicator)
	for _, est := range []Estimator{fn, ifaceEst{fn}} {
		for pass := 0; pass < 2; pass++ {
			calls := counter.calls
			// At the fixed point of this peak: nothing to refine or coarsen.
			if res := AdaptOnce(r, est, 1, 0.25, 12); res.Refined != 0 {
				t.Fatalf("%T pass %d refined %d", est, pass, res.Refined)
			}
			if n := counter.calls - calls; n < r.F.NumLeaves() {
				t.Errorf("%T pass %d made %d calls over %d leaves: a value served a second call", est, pass, n, r.F.NumLeaves())
			}
		}
	}
}
