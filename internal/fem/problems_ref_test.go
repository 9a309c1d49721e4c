package fem

import (
	"math"

	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/refine"
)

// refInterpolationEstimator is InterpolationEstimator as it was before edge
// midpoints were sampled from their two endpoints: every sample, the
// centroid and each edge midpoint alike, is a weight vector over all nv
// vertices, zero weights included. It is kept verbatim as the oracle;
// TestInterpolationEstimatorMatchesReference and FuzzInterpolationEstimator
// hold the two bit-equal.
func refInterpolationEstimator(u func(geom.Vec3) float64) refine.Estimator {
	return refine.EstimatorFunc(func(f *forest.Forest, id forest.NodeID) float64 {
		n := f.Node(id)
		nv := n.Nv()
		var pos [4]geom.Vec3
		var val [4]float64
		for i := 0; i < nv; i++ {
			pos[i] = f.Coords[n.Verts[i]]
			val[i] = u(pos[i])
		}
		worst := 0.0
		sample := func(w [4]float64) {
			var p geom.Vec3
			interp := 0.0
			for i := 0; i < nv; i++ {
				p = p.Add(pos[i].Scale(w[i]))
				interp += w[i] * val[i]
			}
			if d := math.Abs(u(p) - interp); d > worst {
				worst = d
			}
		}
		// Edge midpoints.
		for i := 0; i < nv; i++ {
			for j := i + 1; j < nv; j++ {
				var w [4]float64
				w[i], w[j] = 0.5, 0.5
				sample(w)
			}
		}
		// Centroid.
		var w [4]float64
		for i := 0; i < nv; i++ {
			w[i] = 1 / float64(nv)
		}
		sample(w)
		return worst
	})
}
