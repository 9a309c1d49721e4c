package pared

import (
	"math"

	"pared/internal/fem"
	"pared/internal/refine"
)

// ZZEstimator computes the distributed Zienkiewicz–Zhu error indicator for a
// solution produced by SolveLaplace: the recovered nodal gradient averages
// element gradients across rank interfaces (volume-weighted sums of both the
// gradient and the volume are exchanged at shared dofs), so the indicator at
// a shard boundary equals what a serial computation on the gathered mesh
// would produce (TestDistributedZZMatchesSerial). With this, the engine's
// adapt loop needs no analytic solution — the full PARED cycle of solve →
// estimate → adapt → repartition is self-contained.
func (e *Engine) ZZEstimator(sol *DistSolution) refine.Estimator {
	m := sol.Mesh.Mesh
	n := m.NumVerts()
	// Four words per vertex, summed across ranks in one exchange: the
	// volume-weighted gradient (x, y, z) and the volume.
	rec := make([]float64, 4*n)
	for el := 0; el < m.NumElems(); el++ {
		vol := m.ElemVolume(el)
		ge := fem.ElemGradient(m, sol.U, el)
		nv := m.Elems[el].Nv()
		for i := 0; i < nv; i++ {
			g := rec[4*m.Elems[el].V[i]:][:4]
			g[0] += ge.X * vol
			g[1] += ge.Y * vol
			g[2] += ge.Z * vol
			g[3] += vol
		}
	}
	plan := sol.plan
	if plan == nil {
		plan = e.buildDofPlan()
	}
	plan.exchange(e.Comm, rec, 4, false)
	for v := 0; v < n; v++ {
		g := rec[4*v:][:4]
		if g[3] > 0 {
			g[0] /= g[3]
			g[1] /= g[3]
			g[2] /= g[3]
		}
	}
	ind := make([]float64, len(sol.Mesh.Leaf2Node))
	for el := range sol.Mesh.Leaf2Node {
		ge := fem.ElemGradient(m, sol.U, el)
		nv := m.Elems[el].Nv()
		acc := 0.0
		for i := 0; i < nv; i++ {
			g := rec[4*m.Elems[el].V[i]:][:4]
			dx, dy, dz := ge.X-g[0], ge.Y-g[1], ge.Z-g[2]
			acc += dx*dx + dy*dy + dz*dz
		}
		ind[el] = math.Sqrt(m.ElemVolume(el) * acc / float64(nv))
	}
	// Fresh children inherit the nearest evaluated ancestor's indicator.
	return fem.InheritedEstimator(sol.Mesh.Leaf2Node, ind)
}
