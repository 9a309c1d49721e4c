package refine_test

import (
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
