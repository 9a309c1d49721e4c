package fem

import (
	"math"

	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/mesh"
	"pared/internal/refine"
)

// ElemGradient returns the (constant) gradient of the P1 interpolant of the
// nodal field u on element e.
func ElemGradient(m *mesh.Mesh, u []float64, e int) geom.Vec3 {
	el := m.Elems[e]
	if m.Dim == mesh.D2 {
		a, b, c := m.Verts[el.V[0]], m.Verts[el.V[1]], m.Verts[el.V[2]]
		area2 := 2 * geom.TriangleAreaSigned(a, b, c)
		if area2 == 0 {
			return geom.Vec3{}
		}
		gx := (u[el.V[0]]*(b.Y-c.Y) + u[el.V[1]]*(c.Y-a.Y) + u[el.V[2]]*(a.Y-b.Y)) / area2
		gy := (u[el.V[0]]*(c.X-b.X) + u[el.V[1]]*(a.X-c.X) + u[el.V[2]]*(b.X-a.X)) / area2
		return geom.Vec3{X: gx, Y: gy}
	}
	var p [4]geom.Vec3
	for i := 0; i < 4; i++ {
		p[i] = m.Verts[el.V[i]]
	}
	var g geom.Vec3
	for i := 0; i < 4; i++ {
		// ∇λi as in the stiffness assembly.
		var o [3]geom.Vec3
		idx := 0
		for j := 0; j < 4; j++ {
			if j != i {
				o[idx] = p[j]
				idx++
			}
		}
		n := o[1].Sub(o[0]).Cross(o[2].Sub(o[0]))
		d := p[i].Sub(o[0])
		s := 1.0
		if n.Dot(d) < 0 {
			s = -1
		}
		gi := n.Scale(s / math.Abs(n.Dot(d)))
		g = g.Add(gi.Scale(u[el.V[i]]))
	}
	return g
}

// RecoverGradient computes the Zienkiewicz–Zhu recovered gradient: at each
// vertex, the volume-weighted average of the gradients of its incident
// elements. The recovered field is superconvergent on reasonable meshes,
// which makes ‖∇u_h − G(u_h)‖ a usable error estimate without knowing the
// exact solution.
func RecoverGradient(m *mesh.Mesh, u []float64) []geom.Vec3 {
	g := make([]geom.Vec3, m.NumVerts())
	w := make([]float64, m.NumVerts())
	for e, el := range m.Elems {
		vol := m.ElemVolume(e)
		ge := ElemGradient(m, u, e)
		nv := el.Nv()
		for i := 0; i < nv; i++ {
			g[el.V[i]] = g[el.V[i]].Add(ge.Scale(vol))
			w[el.V[i]] += vol
		}
	}
	for v := range g {
		if w[v] > 0 {
			g[v] = g[v].Scale(1 / w[v])
		}
	}
	return g
}

// ZZIndicators returns per-element error indicators
// η_e = √(vol_e)·‖∇u_h − G(u_h)‖_{L2(e)} computed with the vertex rule —
// the standard ZZ a-posteriori estimate up to constants.
func ZZIndicators(m *mesh.Mesh, u []float64) []float64 {
	rec := RecoverGradient(m, u)
	out := make([]float64, m.NumElems())
	for e, el := range m.Elems {
		ge := ElemGradient(m, u, e)
		nv := el.Nv()
		acc := 0.0
		for i := 0; i < nv; i++ {
			d := ge.Sub(rec[el.V[i]])
			acc += d.Norm2()
		}
		out[e] = math.Sqrt(m.ElemVolume(e) * acc / float64(nv))
	}
	return out
}

// ZZEstimator adapts per-leaf ZZ indicators (computed on a leaf mesh with
// the solution u) to the refine.Estimator interface, so a solver-driven
// adaptation loop needs no analytic solution (see InheritedEstimator).
func ZZEstimator(leaf *forest.LeafMeshResult, u []float64) refine.Estimator {
	return InheritedEstimator(leaf.Leaf2Node, ZZIndicators(leaf.Mesh, u))
}

// InheritedEstimator gives node leaf2Node[e] the indicator ind[e]. A node
// without one (a child of an element refined after the solve) inherits its
// nearest ancestor's, or 0 — otherwise a coarsening pass in the same
// adaptation call would immediately undo fresh refinements.
func InheritedEstimator(leaf2Node []forest.NodeID, ind []float64) refine.Estimator {
	size := 0
	for _, id := range leaf2Node {
		size = max(size, int(id)+1)
	}
	at := make([]int32, size) // at[id] is 1 + the leaf index of node id, or 0
	for e, id := range leaf2Node {
		at[id] = int32(e) + 1
	}
	return refine.EstimatorFunc(func(f *forest.Forest, id forest.NodeID) float64 {
		for n := id; n != forest.NoNode; n = f.Node(n).Parent {
			if int(n) < len(at) && at[n] > 0 {
				return ind[at[n]-1]
			}
		}
		return 0
	})
}
