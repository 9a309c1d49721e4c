package pared

import (
	"math"
	"strings"
	"testing"

	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/mesh"
	"pared/internal/meshgen"
	"pared/internal/par"
	"pared/internal/refine"
)

// cornerEst is a deterministic estimator focusing refinement near a corner.
func cornerEst(corner geom.Vec3) refine.Estimator {
	return refine.EstimatorFunc(func(f *forest.Forest, id forest.NodeID) float64 {
		n := f.Node(id)
		var c geom.Vec3
		for i := 0; i < n.Nv(); i++ {
			c = c.Add(f.Coords[n.Verts[i]])
		}
		c = c.Scale(1.0 / float64(n.Nv()))
		size := math.Pow(0.5, float64(n.Level))
		return size / (0.05 + c.Dist2(corner))
	})
}

// serialReference refines the same mesh with the serial refiner and the same
// adaptation schedule, returning the canonical leaves.
func serialReference(m *mesh.Mesh, est refine.Estimator, tol float64, maxLevel int32, steps int) [][4]forest.VertexID {
	f := forest.FromMesh(m)
	r := refine.NewRefiner(f)
	for i := 0; i < steps; i++ {
		refine.AdaptOnce(r, est, tol, 0, maxLevel)
	}
	return f.CanonicalLeaves()
}

func TestDistributedRefinementMatchesSerial2D(t *testing.T) {
	m := meshgen.RectTri(6, 6, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	want := serialReference(m, est, 0.9, 8, 3)
	for _, p := range []int{2, 3, 4} {
		// Gathered on the first and on the last rank: the forest reaches the
		// root through the wire codec either way.
		roots := []int{0, p - 1}
		got := make([][][4]forest.VertexID, len(roots))
		err := par.Run(p, func(c *par.Comm) {
			e := Bootstrap(c, m)
			for i := 0; i < 3; i++ {
				e.Adapt(est, 0.9, 0, 8)
			}
			if err := e.CheckConsistency(); err != nil {
				panic(err)
			}
			for i, root := range roots {
				g := e.GatherForest(root)
				if c.Rank() == root {
					got[i] = g.CanonicalLeaves()
				}
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for k, root := range roots {
			if len(got[k]) != len(want) {
				t.Fatalf("p=%d root=%d: %d leaves, serial has %d", p, root, len(got[k]), len(want))
			}
			for i := range want {
				if got[k][i] != want[i] {
					t.Fatalf("p=%d root=%d: leaf %d differs", p, root, i)
				}
			}
		}
	}
}

func TestDistributedRefinementMatchesSerial3D(t *testing.T) {
	m := meshgen.BoxTet(2, 2, 2, -1, -1, -1, 1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1, Z: 1})
	want := serialReference(m, est, 0.8, 6, 2)
	var got [][4]forest.VertexID
	err := par.Run(3, func(c *par.Comm) {
		e := Bootstrap(c, m)
		for i := 0; i < 2; i++ {
			e.Adapt(est, 0.8, 0, 6)
		}
		g := e.GatherForest(2)
		if c.Rank() == 2 {
			got = g.CanonicalLeaves()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("3D: %d leaves, serial has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("3D: leaf %d differs", i)
		}
	}
}

func TestRebalanceRestoresBalanceAndMigratesTrees(t *testing.T) {
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	err := par.Run(4, func(c *par.Comm) {
		e := Bootstrap(c, m)
		// Refine hard near one corner: the owning rank becomes overloaded.
		for i := 0; i < 4; i++ {
			e.Adapt(est, 0.6, 0, 10)
		}
		before := e.Imbalance()
		st := e.Rebalance(true)
		if !st.Ran {
			panic("rebalance did not run")
		}
		if st.Imbalance > 0.1 && st.Imbalance > before {
			panic("rebalance made things worse")
		}
		if err := e.CheckConsistency(); err != nil {
			panic(err)
		}
		// The refined mesh must be intact after migration.
		g := e.GatherForest(0)
		if c.Rank() == 0 {
			lm := g.LeafMesh().Mesh
			if err := lm.Validate(); err != nil {
				panic(err)
			}
			if err := lm.CheckConforming(); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckConsistencyFaultsAgreeOnEveryRank plants one fault on one rank —
// a tree held against the owner map, a tree held by nobody — and requires
// every rank to return the same error: the verdict is derived symmetrically,
// so no rank may learn of a fault the others miss.
func TestCheckConsistencyFaultsAgreeOnEveryRank(t *testing.T) {
	const p = 4
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	cases := []struct {
		name    string
		rank    int
		corrupt func(e *Engine)
		want    string
	}{
		{"owner entry overwritten", 2, func(e *Engine) { e.Owner[e.F.Roots()[0]] = 0 }, "rank 2 holds tree"},
		{"tree removed", 1, func(e *Engine) {
			e.F.RemoveTree(e.F.Roots()[0])
			e.R = refine.NewRefiner(e.F)
		}, "held by 0 ranks"},
	}
	for _, tc := range cases {
		var got [p]string
		err := par.Run(p, func(c *par.Comm) {
			e := Bootstrap(c, m)
			e.Adapt(est, 0.8, 0, 7)
			e.Rebalance(true)
			if err := e.CheckConsistency(); err != nil {
				panic(err)
			}
			if c.Rank() == tc.rank {
				tc.corrupt(e)
			}
			if err := e.CheckConsistency(); err != nil {
				got[c.Rank()] = err.Error()
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.Contains(got[0], tc.want) {
			t.Errorf("%s: rank 0 returned %q, want an error containing %q", tc.name, got[0], tc.want)
		}
		for r := 1; r < p; r++ {
			if got[r] != got[0] {
				t.Errorf("%s: rank %d returned %q, rank 0 %q", tc.name, r, got[r], got[0])
			}
		}
	}
}

func TestRebalanceSkipsWhenBalanced(t *testing.T) {
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	err := par.Run(4, func(c *par.Comm) {
		e := Bootstrap(c, m)
		st := e.Rebalance(false) // uniform mesh, balanced initial partition
		if st.Ran {
			panic("rebalance ran on a balanced mesh")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdaptRefineAndCoarsenDistributed(t *testing.T) {
	m := meshgen.RectTri(6, 6, -1, -1, 1, 1)
	err := par.Run(3, func(c *par.Comm) {
		e := Bootstrap(c, m)
		// Refine at corner A, then track to corner B with coarsening.
		for i := 0; i < 3; i++ {
			e.Adapt(cornerEst(geom.Vec3{X: 1, Y: 1}), 0.8, 0, 8)
		}
		high := e.Comm.AllReduceSumInt64(int64(e.F.NumLeaves()))
		total := int64(0)
		for i := 0; i < 4; i++ {
			e.Adapt(cornerEst(geom.Vec3{X: -1, Y: -1}), 0.8, 0.2, 8)
			total += int64(e.F.NumLeaves())
		}
		after := e.Comm.AllReduceSumInt64(int64(e.F.NumLeaves()))
		if c.Rank() == 0 && after >= high*3 {
			panic("coarsening seems inactive while tracking moved region")
		}
		if err := e.CheckConsistency(); err != nil {
			panic(err)
		}
		g := e.GatherForest(0)
		if c.Rank() == 0 {
			if err := g.LeafMesh().Mesh.CheckConforming(); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFullCycleWithFEMEstimator(t *testing.T) {
	// End-to-end: the paper's loop of solve-estimate-adapt-rebalance using the
	// interpolation estimator for the corner solution.
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := fem.InterpolationEstimator(fem.CornerSolution2D)
	err := par.Run(4, func(c *par.Comm) {
		e := Bootstrap(c, m)
		for step := 0; step < 3; step++ {
			e.Adapt(est, 5e-3, 0, 12)
			e.Rebalance(false)
		}
		if e.Imbalance() > 0.5 {
			panic("imbalance never controlled")
		}
		if err := e.CheckConsistency(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
