package fem

import (
	"math"

	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/refine"
)

// CornerSolution2D is the analytic solution of the paper's §6 Laplace test
// problem on Ω = (−1,1)²:
//
//	g(x,y) = cos(2π(x−y)) · sinh(2π(x+y+2)) / sinh(8π)
//
// It is harmonic, smooth, and changes rapidly near the corner (1,1).
// sinh ratios are evaluated in exponential form to avoid overflow.
func CornerSolution2D(p geom.Vec3) float64 {
	return math.Cos(2*math.Pi*(p.X-p.Y)) * sinhRatio(2*math.Pi*(p.X+p.Y+2), 8*math.Pi)
}

// CornerSolution3D is the 3D analogue the paper alludes to ("a similar
// problem has been defined in three dimensions"): a harmonic function on
// (−1,1)³ concentrated at the corner (1,1,1),
//
//	u = cos(2π(x−y)) · sinh(β(x+y+z+3)) / sinh(6β), β = 2π·√(2/3),
//
// harmonic because Δ[f(x−y)·h(x+y+z)] = 2f”h + 3fh” = (−2α² + 3β²)u = 0
// with α = 2π.
func CornerSolution3D(p geom.Vec3) float64 {
	beta := 2 * math.Pi * math.Sqrt(2.0/3.0)
	return math.Cos(2*math.Pi*(p.X-p.Y)) * sinhRatio(beta*(p.X+p.Y+p.Z+3), 6*beta)
}

// sinhRatio computes sinh(a)/sinh(b) for 0 ≤ a ≤ b with b large, without
// overflow: sinh(a)/sinh(b) ≈ e^(a−b)·(1−e^(−2a))/(1−e^(−2b)).
func sinhRatio(a, b float64) float64 {
	if b < 20 {
		return math.Sinh(a) / math.Sinh(b)
	}
	return math.Exp(a-b) * (1 - math.Exp(-2*a)) / (1 - math.Exp(-2*b))
}

// TransientSolution is the known solution of the §10 transient Poisson
// problem: a peak of height 1 at (−t, −t) moving along the diagonal as t
// runs from −0.5 to 0.5:
//
//	u(x,y,t) = 1 / (1 + 100(x+t)² + 100(y+t)²)
func TransientSolution(t float64) func(geom.Vec3) float64 {
	return func(p geom.Vec3) float64 {
		dx, dy := p.X+t, p.Y+t
		return 1 / (1 + 100*dx*dx + 100*dy*dy)
	}
}

// TransientSource returns f = −Δu for the transient solution, so that
// −Δu = f holds exactly (used when actually solving the PDE in examples).
// With D = 1 + 100(x+t)² + 100(y+t)² and u = 1/D, the analytic Laplacian is
// Δu = (400D − 800)/D³, hence f = (800 − 400D)/D³.
func TransientSource(t float64) func(geom.Vec3) float64 {
	return func(p geom.Vec3) float64 {
		dx, dy := p.X+t, p.Y+t
		d := 1 + 100*dx*dx + 100*dy*dy
		return (800 - 400*d) / (d * d * d)
	}
}

// InterpolationEstimator builds a refinement indicator measuring how badly
// linear interpolation of u on a leaf misrepresents u: the maximum absolute
// deviation between u and the P1 interpolant, sampled at edge midpoints and
// the centroid. Adapting until the indicator is below τ everywhere realizes
// the paper's "adapted using the L∞ norm" criterion for problems with known
// solutions.
//
// An edge midpoint is computed from its two endpoints alone. Whenever the
// coordinates and the vertex values u(pos[i]) are finite, the result is bit
// for bit that of the generic form the tests keep as reference, which weighs
// all nv vertices (zero weights included) into sums that start at +0: such a
// sum is never −0 (a float sum is −0 only if both terms are), every skipped
// term is a ±0 that could not have changed it, and the surviving terms are
// added in the same order. With a non-finite vertex value the generic form's
// 0·Inf makes every sample NaN; this one does not. The centroid weighs every
// vertex by 1/nv, summed in vertex order, in both.
func InterpolationEstimator(u func(geom.Vec3) float64) refine.Estimator {
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
		// Edge midpoints.
		for i := 0; i < nv; i++ {
			for j := i + 1; j < nv; j++ {
				p := geom.Vec3{}.Add(pos[i].Scale(0.5)).Add(pos[j].Scale(0.5))
				interp := 0.0 + 0.5*val[i] + 0.5*val[j]
				if d := math.Abs(u(p) - interp); d > worst {
					worst = d
				}
			}
		}
		// Centroid.
		w := 1 / float64(nv)
		var p geom.Vec3
		interp := 0.0
		for i := 0; i < nv; i++ {
			p = p.Add(pos[i].Scale(w))
			interp += w * val[i]
		}
		if d := math.Abs(u(p) - interp); d > worst {
			worst = d
		}
		return worst
	})
}
