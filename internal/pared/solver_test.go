package pared

import (
	"math"
	"testing"

	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/meshgen"
	"pared/internal/par"
)

// collectGlobal gathers the distributed solution at rank 0 as a map from
// global VertexID to value, checking sharers agree.
func collectGlobal(t interface{ Errorf(string, ...any) }, e *Engine, sol *DistSolution) map[forest.VertexID]float64 {
	type pair struct {
		ID  forest.VertexID
		Val float64
	}
	var mine []pair
	for i, fv := range sol.Mesh.Vert2Local {
		mine = append(mine, pair{e.F.VIDs[fv], sol.U[i]})
	}
	all := e.Comm.Gather(0, mine)
	if e.Comm.Rank() != 0 {
		return nil
	}
	out := make(map[forest.VertexID]float64)
	for _, a := range all {
		for _, p := range a.([]pair) {
			if prev, ok := out[p.ID]; ok && math.Abs(prev-p.Val) > 1e-8 {
				t.Errorf("sharers disagree at dof %x: %v vs %v", uint64(p.ID), prev, p.Val)
			}
			out[p.ID] = p.Val
		}
	}
	return out
}

func TestDistributedSolveMatchesSerial(t *testing.T) {
	m := meshgen.RectTri(10, 10, -1, -1, 1, 1)
	// Serial reference on the same (refined) mesh.
	for _, p := range []int{2, 4} {
		err := par.Run(p, func(c *par.Comm) {
			e := Bootstrap(c, m)
			// Refine a bit so shard interfaces are nontrivial.
			est := cornerEst(geom.Vec3{X: 1, Y: 1})
			e.Adapt(est, 0.8, 0, 6)
			sol, err := e.SolveLaplace(nil, fem.CornerSolution2D, 1e-10, 5000)
			if err != nil {
				panic(err)
			}
			global := collectGlobal(t, e, sol)
			g := e.GatherForest(0)
			if c.Rank() == 0 {
				leaf := g.LeafMesh()
				ref, err := fem.Solve(fem.Problem{Mesh: leaf.Mesh, G: fem.CornerSolution2D}, 1e-10, 5000)
				if err != nil {
					panic(err)
				}
				for i, fv := range leaf.Vert2Local {
					id := g.VIDs[fv]
					got, ok := global[id]
					if !ok {
						panic("distributed solution missing a dof")
					}
					if math.Abs(got-ref.U[i]) > 1e-6 {
						panic("distributed and serial solutions differ")
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestDistributedSolvePatchTest(t *testing.T) {
	// A linear solution must be reproduced exactly across shard interfaces.
	m := meshgen.RectTri(8, 8, 0, 0, 1, 1)
	lin := func(p geom.Vec3) float64 { return 2 + 3*p.X - 7*p.Y }
	err := par.Run(3, func(c *par.Comm) {
		e := Bootstrap(c, m)
		sol, err := e.SolveLaplace(nil, lin, 1e-12, 5000)
		if err != nil {
			panic(err)
		}
		for i := range sol.U {
			want := lin(sol.Mesh.Mesh.Verts[i])
			if math.Abs(sol.U[i]-want) > 1e-7 {
				panic("patch test failed on a rank")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributedSolvePoisson(t *testing.T) {
	// Poisson with the transient source: compare with the analytic solution
	// (loose tolerance — discretization error dominates).
	m := meshgen.RectTri(24, 24, -1, -1, 1, 1)
	tt := 0.0
	err := par.Run(4, func(c *par.Comm) {
		e := Bootstrap(c, m)
		sol, err := e.SolveLaplace(fem.TransientSource(tt), fem.TransientSolution(tt), 1e-10, 8000)
		if err != nil {
			panic(err)
		}
		u := fem.TransientSolution(tt)
		worst := 0.0
		for i := range sol.U {
			if d := math.Abs(sol.U[i] - u(sol.Mesh.Mesh.Verts[i])); d > worst {
				worst = d
			}
		}
		// Coarse 24x24 mesh under a sharp peak: just require sanity.
		if worst > 0.5 {
			panic("distributed Poisson solve wildly off")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributedSolveAfterMigration(t *testing.T) {
	// The solve must work after adaptation and rebalancing reshuffled trees.
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	err := par.Run(4, func(c *par.Comm) {
		e := Bootstrap(c, m)
		est := cornerEst(geom.Vec3{X: 1, Y: 1})
		for i := 0; i < 3; i++ {
			e.Adapt(est, 0.7, 0, 8)
			e.Rebalance(true)
		}
		sol, err := e.SolveLaplace(nil, fem.CornerSolution2D, 1e-9, 5000)
		if err != nil {
			panic(err)
		}
		global := collectGlobal(t, e, sol)
		if c.Rank() == 0 && len(global) == 0 {
			panic("no solution gathered")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributedSolve3DPatchTest(t *testing.T) {
	m := meshgen.BoxTet(3, 3, 3, 0, 0, 0, 1, 1, 1)
	lin := func(p geom.Vec3) float64 { return 1 + p.X - 2*p.Y + 3*p.Z }
	err := par.Run(4, func(c *par.Comm) {
		e := Bootstrap(c, m)
		// Refine a little so interfaces subdivide.
		e.Adapt(cornerEst(geom.Vec3{X: 1, Y: 1, Z: 1}), 0.9, 0, 4)
		sol, err := e.SolveLaplace(nil, lin, 1e-11, 8000)
		if err != nil {
			panic(err)
		}
		for i := range sol.U {
			want := lin(sol.Mesh.Mesh.Verts[i])
			if math.Abs(sol.U[i]-want) > 1e-6 {
				panic("3D distributed patch test failed")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributedZZLoopSelfContained(t *testing.T) {
	// The complete PARED cycle with no analytic indicator: distributed
	// solve, distributed ZZ estimate, conformal adaptation, PNR rebalance.
	m := meshgen.RectTri(10, 10, -1, -1, 1, 1)
	err := par.Run(4, func(c *par.Comm) {
		e := Bootstrap(c, m)
		start := int64(0)
		for cycle := 0; cycle < 3; cycle++ {
			sol, err := e.SolveLaplace(nil, fem.CornerSolution2D, 1e-9, 10000)
			if err != nil {
				panic(err)
			}
			est := e.ZZEstimator(sol)
			// Global 85th-percentile threshold: gather local indicator sums
			// cheaply via max scaling — here simply use a fraction of the
			// global max indicator.
			var localMax float64
			e.F.VisitLeaves(func(id forest.NodeID) {
				if v := est.Indicator(e.F, id); v > localMax {
					localMax = v
				}
			})
			scaledMax, _ := e.Comm.AllReduceMaxSum(int64(localMax * 1e12))
			globalMax := float64(scaledMax) / 1e12
			ast := e.Adapt(est, globalMax*0.3, 0, 14)
			if cycle == 0 {
				start = ast.GlobalLeaves
			}
			e.Rebalance(false)
		}
		if err := e.CheckConsistency(); err != nil {
			panic(err)
		}
		final := e.Comm.AllReduceSumInt64(int64(e.F.NumLeaves()))
		if final <= start {
			panic("ZZ-driven distributed adaptation refined nothing")
		}
		// Refinement concentrated near (1,1): count local leaves near both
		// corners and reduce.
		var near, far int64
		lm := e.F.LeafMesh()
		for el := range lm.Mesh.Elems {
			cen := lm.Mesh.Centroid(el)
			if cen.Dist(geom.Vec3{X: 1, Y: 1}) < 0.5 {
				near++
			}
			if cen.Dist(geom.Vec3{X: -1, Y: -1}) < 0.5 {
				far++
			}
		}
		gNear := e.Comm.AllReduceSumInt64(near)
		gFar := e.Comm.AllReduceSumInt64(far)
		if c.Rank() == 0 && gNear <= gFar {
			panic("distributed ZZ refinement not concentrated at the corner")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
