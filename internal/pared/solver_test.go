package pared

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"pared/internal/check"
	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/mesh"
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

// adaptedEngine bootstraps m and runs three Adapt+Rebalance(true) rounds
// toward corner, so that trees have migrated and shard interfaces are
// irregular.
func adaptedEngine(c *par.Comm, m *mesh.Mesh, corner geom.Vec3, tol float64, maxLevel int32) *Engine {
	e := Bootstrap(c, m)
	est := cornerEst(corner)
	for i := 0; i < 3; i++ {
		e.Adapt(est, tol, 0, maxLevel)
		e.Rebalance(true)
	}
	return e
}

// TestDistCGBitIdenticalToReference pins the floating-point association of
// the packed exchange and the fused reductions: SolveLaplace must reproduce
// the reference schedule of solver_ref_test.go bit for bit on every rank.
func TestDistCGBitIdenticalToReference(t *testing.T) {
	cases := []struct {
		name      string
		mesh      *mesh.Mesh
		corner    geom.Vec3
		tol       float64
		maxLevel  int32
		source, g func(geom.Vec3) float64
	}{
		{"RectTri/laplace", meshgen.RectTri(8, 8, -1, -1, 1, 1), geom.Vec3{X: 1, Y: 1}, 0.7, 8,
			nil, fem.CornerSolution2D},
		{"RectTri/poisson", meshgen.RectTri(8, 8, -1, -1, 1, 1), geom.Vec3{X: 1, Y: 1}, 0.7, 8,
			fem.TransientSource(0), fem.TransientSolution(0)},
		{"BoxTet/laplace", meshgen.BoxTet(3, 3, 3, 0, 0, 0, 1, 1, 1), geom.Vec3{X: 1, Y: 1, Z: 1}, 0.9, 4,
			nil, func(p geom.Vec3) float64 { return 1 + p.X - 2*p.Y + 3*p.Z*p.Z }},
		{"BoxTet/poisson", meshgen.BoxTet(3, 3, 3, 0, 0, 0, 1, 1, 1), geom.Vec3{X: 1, Y: 1, Z: 1}, 0.9, 4,
			func(p geom.Vec3) float64 { return 1 + p.X*p.Y }, func(p geom.Vec3) float64 { return p.Z }},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 2, 3, 4, 8} {
			err := par.Run(p, func(c *par.Comm) {
				e := adaptedEngine(c, tc.mesh, tc.corner, tc.tol, tc.maxLevel)
				sol, _ := e.SolveLaplace(tc.source, tc.g, 1e-10, 5000)
				ref := e.refSolveLaplace(tc.source, tc.g, 1e-10, 5000)
				if sol.Iterations == 0 || !sol.Converged {
					panic(fmt.Sprintf("solve did not run: %d iterations, converged=%v", sol.Iterations, sol.Converged))
				}
				if sol.Iterations != ref.Iterations || sol.Converged != ref.Converged ||
					math.Float64bits(sol.Residual) != math.Float64bits(ref.Residual) {
					panic(fmt.Sprintf("rank %d: %d iterations, residual %v; reference %d, %v",
						c.Rank(), sol.Iterations, sol.Residual, ref.Iterations, ref.Residual))
				}
				for i := range ref.U {
					if math.Float64bits(sol.U[i]) != math.Float64bits(ref.U[i]) {
						panic(fmt.Sprintf("rank %d dof %d: U = %v, reference %v", c.Rank(), i, sol.U[i], ref.U[i]))
					}
				}
				// The association only matters where three or more ranks
				// meet; make sure the meshes have such dofs.
				sharers := make([]int, len(sol.U))
				for _, h := range sol.plan.nbrs {
					for _, i := range h.idx {
						sharers[i]++
					}
				}
				var multi int64
				for _, n := range sharers {
					if n >= 2 {
						multi++
					}
				}
				if c.AllReduceSumInt64(multi) == 0 && p >= 3 {
					panic("no dof with three or more sharers")
				}
			})
			if err != nil {
				t.Errorf("%s p=%d: %v", tc.name, p, err)
			}
		}
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestDistCGIterationAllocatesNothing: the allocation count of a CG solve
// must not depend on how many iterations it runs. (The set-up is measured
// out: its maps allocate a hash-seed-dependent number of overflow buckets.)
// It holds for every GOMAXPROCS up to the rank count, the benchmark's
// oversubscribed shape included.
func TestDistCGIterationAllocatesNothing(t *testing.T) {
	if check.Enabled {
		t.Skip("under paredassert every MulVec recomputes itself into a fresh vector")
	}
	m := meshgen.RectTri(48, 48, -1, -1, 1, 1) // ~600 rows per rank
	for _, procs := range []int{1, 2, 4} {
		if raceEnabled && procs > 1 {
			// The race runtime allocates a varying handful of objects per
			// solve when ranks hand off between Ps, iterations or not.
			continue
		}
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var mallocs [2]uint64
			err := par.Run(4, func(c *par.Comm) {
				e := Bootstrap(c, m)
				plan := e.buildDofPlan()
				sys, rhs, gval := e.assembleLaplace(plan, nil, fem.CornerSolution2D)
				// measure returns the process-wide malloc count of one
				// collective distCG capped at maxIter; the other ranks idle
				// in the barriers while rank 0 reads the counter.
				measure := func(maxIter int) uint64 {
					var before, after runtime.MemStats
					c.Barrier()
					if c.Rank() == 0 {
						runtime.ReadMemStats(&before)
					}
					c.Barrier()
					if _, iters, _, _ := e.distCG(plan, sys, rhs, gval, 0, maxIter); iters != maxIter {
						panic(fmt.Sprintf("solve stopped after %d of %d iterations", iters, maxIter))
					}
					c.Barrier()
					if c.Rank() == 0 {
						runtime.ReadMemStats(&after)
					}
					return after.Mallocs - before.Mallocs
				}
				measure(110) // warm the pending queues and the runtime's caches
				for k, maxIter := range []int{10, 110} {
					// Min of three: a GC cycle or a queue growth in the
					// window only ever adds allocations.
					best := measure(maxIter)
					for i := 0; i < 2; i++ {
						best = min(best, measure(maxIter))
					}
					if c.Rank() == 0 {
						mallocs[k] = best
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if mallocs[0] != mallocs[1] {
				t.Errorf("GOMAXPROCS=%d: a 10-iteration solve allocates %d objects, a 110-iteration solve %d: the iteration allocates", procs, mallocs[0], mallocs[1])
			}
		}()
	}
}

// TestDistributedZZMatchesSerial checks the claim in ZZEstimator's doc
// comment: with the same nodal values, the distributed indicator of every
// leaf equals the serial fem.ZZIndicators of the gathered mesh. Leaves are
// matched by their sorted global VertexIDs (node ids differ after
// GatherForest).
func TestDistributedZZMatchesSerial(t *testing.T) {
	type leafKey [4]forest.VertexID
	keyOf := func(f *forest.Forest, lm *forest.LeafMeshResult, el int) leafKey {
		var k leafKey
		elem := lm.Mesh.Elems[el]
		for i := 0; i < elem.Nv(); i++ {
			k[i] = f.VIDs[lm.Vert2Local[elem.V[i]]]
		}
		slices.Sort(k[:elem.Nv()])
		return k
	}
	type leafInd struct {
		Key leafKey
		Ind float64
	}
	m := meshgen.RectTri(10, 10, -1, -1, 1, 1)
	for _, p := range []int{2, 4} {
		err := par.Run(p, func(c *par.Comm) {
			e := adaptedEngine(c, m, geom.Vec3{X: 1, Y: 1}, 0.7, 8)
			sol, err := e.SolveLaplace(nil, fem.CornerSolution2D, 1e-10, 5000)
			if err != nil {
				panic(err)
			}
			est := e.ZZEstimator(sol)
			var mine []leafInd
			for el, id := range sol.Mesh.Leaf2Node {
				mine = append(mine, leafInd{keyOf(e.F, sol.Mesh, el), est.Indicator(e.F, id)})
			}
			all := c.Gather(0, mine)
			global := collectGlobal(t, e, sol)
			g := e.GatherForest(0)
			if c.Rank() != 0 {
				return
			}
			dist := make(map[leafKey]float64)
			for _, a := range all {
				for _, li := range a.([]leafInd) {
					dist[li.Key] = li.Ind
				}
			}
			leaf := g.LeafMesh()
			u := make([]float64, leaf.Mesh.NumVerts())
			for i, fv := range leaf.Vert2Local {
				u[i] = global[g.VIDs[fv]]
			}
			serial := fem.ZZIndicators(leaf.Mesh, u)
			if len(dist) != len(serial) {
				panic(fmt.Sprintf("%d distributed leaves, %d serial", len(dist), len(serial)))
			}
			for el, want := range serial {
				got, ok := dist[keyOf(g, leaf, el)]
				if !ok {
					panic("a serial leaf has no distributed counterpart")
				}
				if math.Abs(got-want) > 1e-10 {
					panic(fmt.Sprintf("leaf %d: distributed indicator %v, serial %v", el, got, want))
				}
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// BenchmarkDistCGSolve times one collective SolveLaplace (plan, assembly and
// CG) at p = 4 on a fixed uniform mesh.
func BenchmarkDistCGSolve(b *testing.B) {
	m := meshgen.RectTri(48, 48, -1, -1, 1, 1)
	b.ReportAllocs()
	err := par.Run(4, func(c *par.Comm) {
		e := Bootstrap(c, m)
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		iters := 0
		for i := 0; i < b.N; i++ {
			sol, err := e.SolveLaplace(nil, fem.CornerSolution2D, 1e-8, 5000)
			if err != nil {
				panic(err)
			}
			iters = sol.Iterations
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.StopTimer()
			b.ReportMetric(float64(iters), "cg_iters")
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
