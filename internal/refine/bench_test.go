package refine_test

import (
	"slices"
	"testing"

	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/meshgen"
	"pared/internal/refine"
)

// The paper's §10 transient problem at the scale of cmd/pared's defaults: a
// 20×20 grid adapted to the moving peak with tolerance τ and coarsening below
// τ/4.
const (
	benchTol      = 2e-3
	benchMaxLevel = 18
	benchSteps    = 40
)

// peakAt is the estimator of step k of a peak that walks the diagonal and
// back, so consecutive steps always differ by one step's worth of motion.
func peakAt(k int) refine.Estimator {
	k %= 2 * benchSteps
	if k >= benchSteps {
		k = 2*benchSteps - 1 - k
	}
	return fem.InterpolationEstimator(fem.TransientSolution(-0.5 + float64(k)/float64(benchSteps-1)))
}

// trackedPeak returns a refiner whose mesh has followed the peak for one full
// walk, so the benchmarks start from the steady state of the cycle.
func trackedPeak(b *testing.B) *refine.Refiner {
	r := refine.NewRefiner(forest.FromMesh(meshgen.RectTri(20, 20, -1, -1, 1, 1)))
	for k := 0; k < 2*benchSteps; k++ {
		refine.AdaptOnce(r, peakAt(k), benchTol, benchTol/4, benchMaxLevel)
	}
	if r.F.NumLeaves() < 2000 {
		b.Fatalf("tracked mesh has %d leaves, want a few thousand", r.F.NumLeaves())
	}
	return r
}

var coarsenSink int

// BenchmarkCoarsenQuiescent is a Coarsen call that approves nothing: the one
// leaf sweep that counts vertex uses, no candidate, no round. Its scratch is
// the refiner's, so the steady state allocates nothing.
func BenchmarkCoarsenQuiescent(b *testing.B) {
	r := trackedPeak(b)
	never := func(forest.NodeID) bool { return false }
	r.Coarsen(never)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coarsenSink += r.Coarsen(never)
	}
}

// BenchmarkAdaptTransientStep is one AdaptOnce per step of the walking peak:
// refinement ahead of it, the cascade of coarsening rounds behind it.
func BenchmarkAdaptTransientStep(b *testing.B) {
	r := trackedPeak(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := refine.AdaptOnce(r, peakAt(i), benchTol, benchTol/4, benchMaxLevel)
		coarsenSink += res.Refined + res.Coarsened
	}
}

// BenchmarkAdaptRepeatedPass is an AdaptOnce pass with coarsening at the
// fixed point of its estimator, passed the same estimator and tolerances
// again: the second and third pass of an engine epoch once they change
// nothing. No leaf was born since the last pass and no node bisected, so the
// target sweep examines no leaf, the Coarsen is skipped, and the estimator is
// never called: the pass costs what changed, which is nothing.
func BenchmarkAdaptRepeatedPass(b *testing.B) {
	r := trackedPeak(b)
	est := peakAt(0)
	for pass := 0; ; pass++ {
		if pass == 20 {
			b.Fatal("no fixed point in 20 passes")
		}
		if res := refine.AdaptOnce(r, est, benchTol, benchTol/4, benchMaxLevel); res.Refined == 0 && res.Coarsened == 0 {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := refine.AdaptOnce(r, est, benchTol, benchTol/4, benchMaxLevel)
		coarsenSink += res.Refined + res.Coarsened
	}
}

// clone rebuilds f's trees into a fresh forest, as migration would: the same
// mesh under a deterministic numbering.
func clone(f *forest.Forest) *forest.Forest {
	g := forest.New(f.Dim)
	for _, root := range f.Roots() {
		g.InsertTree(f.ExtractTree(root))
	}
	return g
}

// BenchmarkClosure3D is one growth step of growth3d_sfc's kind: on BoxTet(6,6,6)
// pre-adapted twice to the corner solution, the leaves above the next
// tolerance are marked and the closure runs — tetrahedral bisection with its
// propagation, nearly all of it edge-record work. Each op starts from a clone
// of the pre-adapted mesh, built with the timer stopped.
func BenchmarkClosure3D(b *testing.B) {
	est := fem.InterpolationEstimator(fem.CornerSolution3D)
	base := refine.NewRefiner(forest.FromMesh(meshgen.BoxTet(6, 6, 6, -1, -1, -1, 1, 1, 1)))
	tol := 2e-2
	for step := 0; step < 4; step++ {
		refine.AdaptOnce(base, est, tol, 0, benchMaxLevel)
		tol *= 0.6
	}
	var targets []forest.NodeID
	start := clone(base.F)
	start.VisitLeaves(func(id forest.NodeID) {
		if est.Indicator(start, id) > tol {
			targets = append(targets, id)
		}
	})
	if len(targets) < 100 {
		b.Fatalf("%d targets on %d leaves, want a growth step of hundreds", len(targets), start.NumLeaves())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := refine.NewRefiner(clone(base.F))
		b.StartTimer()
		for _, id := range targets {
			r.RefineLeaf(id)
		}
		coarsenSink += r.Closure()
	}
}

// BenchmarkSpliceTree is the migration splice as Engine.migrate runs it,
// under a live refiner: one deep tree leaves (ExtractTree, RemoveTree),
// another comes in (InsertTree) and takes the vertex slots the first one
// freed, and the refiner settles. The two deepest trees of the tracked mesh
// take turns, so every op is the same splice.
func BenchmarkSpliceTree(b *testing.B) {
	r := trackedPeak(b)
	f := r.F
	roots := f.Roots()
	slices.SortStableFunc(roots, func(x, y int32) int { return f.TreeSize(y) - f.TreeSize(x) })
	if f.TreeSize(roots[1]) < 100 {
		b.Fatalf("second deepest tree has %d nodes, want a deep one", f.TreeSize(roots[1]))
	}
	held, away := roots[0], f.ExtractTree(roots[1])
	r.RemoveTree(away.Root)
	f.RemoveTree(away.Root)
	r.Settle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := f.ExtractTree(held)
		r.RemoveTree(held)
		f.RemoveTree(held)
		f.InsertTree(away)
		r.InsertTree(away.Root)
		r.Settle()
		held, away = away.Root, p
	}
}

// BenchmarkSpliceTreeSettle is BenchmarkSpliceTree on a forest the size of
// one rank of the transient2d workloads (the 400 largest trees of the
// tracked mesh), with the payloads extracted once, outside the loop: one deep
// tree leaves, another comes in, and the refiner settles. Its allocations are
// the splice's own.
func BenchmarkSpliceTreeSettle(b *testing.B) {
	r := trackedPeak(b)
	f := r.F
	roots := f.Roots()
	slices.SortStableFunc(roots, func(x, y int32) int { return f.TreeSize(y) - f.TreeSize(x) })
	for _, root := range roots[len(roots)/2:] {
		r.RemoveTree(root)
		f.RemoveTree(root)
	}
	if f.TreeSize(roots[1]) < 100 || f.NumLeaves() < 1000 {
		b.Fatalf("%d leaves, second deepest tree %d nodes: want a rank's worth and deep trees", f.NumLeaves(), f.TreeSize(roots[1]))
	}
	held, away := f.ExtractTree(roots[0]), f.ExtractTree(roots[1])
	r.RemoveTree(away.Root)
	f.RemoveTree(away.Root)
	r.Settle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RemoveTree(held.Root)
		f.RemoveTree(held.Root)
		f.InsertTree(away)
		r.InsertTree(away.Root)
		r.Settle()
		held, away = away, held
	}
}
