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
	"pared/internal/la"
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
// the reference schedule of solver_ref_test.go bit for bit on every rank, on
// the first (cold) solve and on a warm one after a further Adapt and a forced
// Rebalance, the reference starting from the same field and making its copies
// identical through its own exchange.
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
				// compare runs SolveLaplace and the reference from the field
				// SolveLaplace starts from, before it overwrites it.
				compare := func(when string) {
					var x0 []float64
					if e.F.Field != nil {
						for _, fv := range e.F.LeafMesh().Vert2Local {
							x0 = append(x0, e.F.Field[fv])
						}
					}
					sol, _ := e.SolveLaplace(tc.source, tc.g, 1e-10, 5000)
					ref := e.refSolveLaplace(x0, tc.source, tc.g, 1e-10, 5000)
					if sol.Iterations == 0 || !sol.Converged {
						panic(fmt.Sprintf("%s solve did not run: %d iterations, converged=%v", when, sol.Iterations, sol.Converged))
					}
					if sol.Iterations != ref.Iterations || sol.Converged != ref.Converged ||
						math.Float64bits(sol.Residual) != math.Float64bits(ref.Residual) {
						panic(fmt.Sprintf("%s rank %d: %d iterations, residual %v; reference %d, %v",
							when, c.Rank(), sol.Iterations, sol.Residual, ref.Iterations, ref.Residual))
					}
					for i := range ref.U {
						if math.Float64bits(sol.U[i]) != math.Float64bits(ref.U[i]) {
							panic(fmt.Sprintf("%s rank %d dof %d: U = %v, reference %v", when, c.Rank(), i, sol.U[i], ref.U[i]))
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
						panic(fmt.Sprintf("%s: no dof with three or more sharers", when))
					}
				}
				compare("cold")
				e.Adapt(cornerEst(tc.corner), 0.7*tc.tol, 0, tc.maxLevel+1)
				e.Rebalance(true)
				compare("warm")
			})
			if err != nil {
				t.Errorf("%s p=%d: %v", tc.name, p, err)
			}
		}
	}
}

// gatherExact gathers vals, indexed like the vertices of leaf, at rank 0 as a
// map from global VertexID to value, and panics if two ranks hold different
// bits at the same vertex.
func gatherExact(e *Engine, leaf *forest.LeafMeshResult, vals []float64) map[forest.VertexID]float64 {
	type pair struct {
		ID  forest.VertexID
		Val float64
	}
	var mine []pair
	for i, fv := range leaf.Vert2Local {
		mine = append(mine, pair{e.F.VIDs[fv], vals[i]})
	}
	all := e.Comm.Gather(0, mine)
	if e.Comm.Rank() != 0 {
		return nil
	}
	out := make(map[forest.VertexID]float64)
	for _, a := range all {
		for _, p := range a.([]pair) {
			if prev, ok := out[p.ID]; ok && math.Float64bits(prev) != math.Float64bits(p.Val) {
				panic(fmt.Sprintf("sharers of vertex %x hold %v and %v", uint64(p.ID), prev, p.Val))
			}
			out[p.ID] = p.Val
		}
	}
	return out
}

// TestDistributedSolveWarmMatchesSerial: a warm solve, after a further Adapt
// and a forced Rebalance, matches serial CG on the gathered mesh started from
// the same guess — the distributed initial guess gathered by VertexID, which
// every sharer holds with the same bits — to solver tolerance and in the same
// number of iterations, and fewer than serial CG from zero.
func TestDistributedSolveWarmMatchesSerial(t *testing.T) {
	m := meshgen.RectTri(10, 10, -1, -1, 1, 1)
	corner := geom.Vec3{X: 1, Y: 1}
	g := fem.CornerSolution2D
	for _, p := range []int{2, 3, 4} {
		err := par.Run(p, func(c *par.Comm) {
			e := adaptedEngine(c, m, corner, 0.7, 8)
			if _, err := e.SolveLaplace(nil, g, 1e-10, 5000); err != nil {
				panic(err)
			}
			e.Adapt(cornerEst(corner), 0.5, 0, 9)
			e.Rebalance(true)
			plan := e.buildDofPlan()
			x0 := gatherExact(e, plan.leaf, e.warmStart(plan))
			sol, err := e.SolveLaplace(nil, g, 1e-10, 5000)
			if err != nil {
				panic(err)
			}
			global := collectGlobal(t, e, sol)
			gf := e.GatherForest(0)
			if c.Rank() != 0 {
				return
			}
			// The reduced system of fem.Solve on the gathered mesh, from x0.
			leaf := gf.LeafMesh()
			lm := leaf.Mesh
			n := lm.NumVerts()
			onBnd := lm.BoundaryVertexSet()
			a := fem.AssembleLaplace(lm)
			b := la.NewBuilder(n)
			rhs := make([]float64, n)
			u := make([]float64, n)
			for i := 0; i < n; i++ {
				if onBnd[i] {
					b.Add(i, i, 1)
					rhs[i] = g(lm.Verts[i])
					u[i] = rhs[i]
					continue
				}
				u[i] = x0[gf.VIDs[leaf.Vert2Local[i]]]
				for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
					if j := int(a.Col[k]); onBnd[j] {
						rhs[i] -= a.Val[k] * g(lm.Verts[j])
					} else {
						b.Add(i, j, a.Val[k])
					}
				}
			}
			sys := b.Build()
			cold := make([]float64, n)
			for v := range onBnd {
				cold[v] = rhs[v]
			}
			coldRes := la.CG(sys, rhs, cold, 1e-10, 5000)
			res := la.CG(sys, rhs, u, 1e-10, 5000)
			if !res.Converged || res.Iterations != sol.Iterations {
				panic(fmt.Sprintf("serial CG from x0: %d iterations (converged=%v), distributed %d", res.Iterations, res.Converged, sol.Iterations))
			}
			if res.Iterations >= coldRes.Iterations {
				panic(fmt.Sprintf("the warm start took %d iterations, a cold start %d", res.Iterations, coldRes.Iterations))
			}
			for i, fv := range leaf.Vert2Local {
				if got := global[gf.VIDs[fv]]; math.Abs(got-u[i]) > 1e-6 {
					panic(fmt.Sprintf("vertex %d: distributed %v, serial %v", i, got, u[i]))
				}
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestDistributedSolveFieldFollowsTrees: the field rides with the trees. A
// linear field, which P1 interpolation reproduces exactly on the grid's
// dyadic coordinates, holds at every live vertex slot of every rank through
// refinement, coarsening and forced migrations, so each new midpoint took its
// edge's mean and each arriving vertex its sender's value. After a real solve,
// a further Adapt and a migration, a vertex that was there before holds a
// value one of its copies held, and the warm start hands every sharer of a
// dof the same bits.
func TestDistributedSolveFieldFollowsTrees(t *testing.T) {
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	linear := func(c geom.Vec3) float64 { return 3*c.X - c.Y + 0.25 }
	err := par.Run(4, func(c *par.Comm) {
		e := Bootstrap(c, m)
		e.F.Field = make([]float64, len(e.F.Coords))
		for v, x := range e.F.Coords {
			e.F.Field[v] = linear(x)
		}
		for i, corner := range []geom.Vec3{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: -1, Y: 1}, {X: -1, Y: -1}} {
			coarsen := 0.0
			if i >= 2 {
				coarsen = 0.3
			}
			e.Adapt(cornerEst(corner), 0.7, coarsen, 8)
			e.Rebalance(true)
			if err := e.F.CheckVertices(); err != nil {
				panic(err)
			}
			for v, x := range e.F.Coords {
				if e.F.Uses(int32(v)) > 0 && e.F.Field[v] != linear(x) {
					panic(fmt.Sprintf("round %d rank %d slot %d at %v: field %v, want %v", i, c.Rank(), v, x, e.F.Field[v], linear(x)))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	err = par.Run(4, func(c *par.Comm) {
		e := adaptedEngine(c, m, geom.Vec3{X: 1, Y: 1}, 0.7, 8)
		if _, err := e.SolveLaplace(nil, fem.CornerSolution2D, 1e-10, 5000); err != nil {
			panic(err)
		}
		type copyOf struct {
			ID   forest.VertexID
			Bits uint64
		}
		held := func() []copyOf {
			var out []copyOf
			for v, id := range e.F.VIDs {
				if e.F.Uses(int32(v)) > 0 {
					out = append(out, copyOf{id, math.Float64bits(e.F.Field[v])})
				}
			}
			return out
		}
		before := c.Gather(0, held())
		e.Adapt(cornerEst(geom.Vec3{X: 1, Y: 1}), 0.5, 0, 9)
		st := e.Rebalance(true)
		after := c.Gather(0, held())
		plan := e.buildDofPlan()
		gatherExact(e, plan.leaf, e.warmStart(plan))
		if c.Rank() != 0 {
			return
		}
		if st.MovedTrees == 0 {
			panic("the forced rebalance moved no tree")
		}
		was := make(map[copyOf]bool)
		ids := make(map[forest.VertexID]bool)
		for _, cs := range before {
			for _, x := range cs.([]copyOf) {
				was[x], ids[x.ID] = true, true
			}
		}
		for r, cs := range after {
			for _, x := range cs.([]copyOf) {
				if ids[x.ID] && !was[x] {
					panic(fmt.Sprintf("rank %d holds vertex %x at %v, which no copy held before", r, uint64(x.ID), math.Float64frombits(x.Bits)))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
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
					if _, iters, _, _ := e.distCG(plan, sys, rhs, gval, nil, 0, maxIter); iters != maxIter {
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

// BenchmarkDistCGSolve times one collective cold SolveLaplace (plan, assembly
// and CG) at p = 4 on a fixed uniform mesh. Each iteration drops the field
// the previous one left first: warm-started from the converged answer, CG
// would run no iteration, and neither the cg_iters metric nor the allocation
// pin would measure a solve.
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
			e.F.Field = nil
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
