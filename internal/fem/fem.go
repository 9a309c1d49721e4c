// Package fem implements the finite-element substrate PARED's simulations
// run on: piecewise-linear (P1) assembly of the Laplace operator on triangle
// and tetrahedral meshes, Dirichlet boundary conditions, and solvers for the
// two model problems the paper evaluates with — the Laplace corner-singular
// problem (§6) and the transient moving-peak Poisson problem (§10).
package fem

import (
	"fmt"
	"math"

	"pared/internal/geom"
	"pared/internal/kern"
	"pared/internal/la"
	"pared/internal/mesh"
)

// elemStiffness2D returns the 3×3 P1 stiffness matrix of a triangle.
// K_ij = ∫ ∇φi·∇φj over the element, using the constant-gradient formula.
func elemStiffness2D(a, b, c geom.Vec3) (k [3][3]float64, ok bool) {
	area := geom.TriangleAreaSigned(a, b, c)
	if area == 0 {
		return k, false
	}
	// ∇φi = perpendicular of the opposite edge / (2·area).
	gx := [3]float64{b.Y - c.Y, c.Y - a.Y, a.Y - b.Y}
	gy := [3]float64{c.X - b.X, a.X - c.X, b.X - a.X}
	f := 1.0 / (4 * math.Abs(area))
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			k[i][j] = f * (gx[i]*gx[j] + gy[i]*gy[j])
		}
	}
	return k, true
}

// elemStiffness3D returns the 4×4 P1 stiffness matrix of a tetrahedron,
// computed from the gradients of the barycentric coordinates.
func elemStiffness3D(p [4]geom.Vec3) (k [4][4]float64, ok bool) {
	vol := geom.TetVolumeSigned(p[0], p[1], p[2], p[3])
	if vol == 0 {
		return k, false
	}
	// ∇λi = (opposite-face normal scaled) / (6·vol); compute via cross
	// products of the face spanned by the other three vertices.
	var grads [4]geom.Vec3
	for i := 0; i < 4; i++ {
		// Vertices of the face opposite i, in an order giving an outward
		// consistency that the 1/(6·vol) signed factor normalizes.
		var o [3]geom.Vec3
		idx := 0
		for j := 0; j < 4; j++ {
			if j != i {
				o[idx] = p[j]
				idx++
			}
		}
		n := o[1].Sub(o[0]).Cross(o[2].Sub(o[0]))
		// Orient so that ∇λi points toward vertex i: λi increases from the
		// face (value 0) to vertex i (value 1).
		d := p[i].Sub(o[0])
		s := 1.0
		if n.Dot(d) < 0 {
			s = -1
		}
		// |∇λi| = 1/h where h is the distance from vertex i to the face;
		// n/(n·d) has exactly that magnitude and direction.
		grads[i] = n.Scale(s / math.Abs(n.Dot(d)))
	}
	av := math.Abs(vol)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			k[i][j] = av * grads[i].Dot(grads[j])
		}
	}
	return k, true
}

// assembleGrain is the element-chunk size for parallel stiffness assembly.
const assembleGrain = 256

// AssembleLaplace assembles the global P1 stiffness matrix of −Δ on m,
// without boundary conditions.
//
// Assembly is element-parallel on internal/kern: element e owns the triplet
// slots [e·nv², (e+1)·nv²), so workers write disjoint ranges and the triplet
// stream is in exact element order — byte-identical to a serial loop — before
// la.BuildCSR sums it. A degenerate element marks its first row slot -1; the
// serial scan afterwards panics at the first one in element order.
func AssembleLaplace(m *mesh.Mesh) *la.CSR {
	n := m.NumVerts()
	ne := m.NumElems()
	nv := 3
	if m.Dim == mesh.D3 {
		nv = 4
	}
	nv2 := nv * nv
	rows := make([]int32, ne*nv2)
	cols := make([]int32, ne*nv2)
	vals := make([]float64, ne*nv2)
	kern.For(ne, assembleGrain, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			el := m.Elems[e]
			off := e * nv2
			if m.Dim == mesh.D2 {
				k, ok := elemStiffness2D(m.Verts[el.V[0]], m.Verts[el.V[1]], m.Verts[el.V[2]])
				if !ok {
					rows[off] = -1
					continue
				}
				for i := 0; i < 3; i++ {
					for j := 0; j < 3; j++ {
						rows[off] = el.V[i]
						cols[off] = el.V[j]
						vals[off] = k[i][j]
						off++
					}
				}
			} else {
				var p [4]geom.Vec3
				for i := 0; i < 4; i++ {
					p[i] = m.Verts[el.V[i]]
				}
				k, ok := elemStiffness3D(p)
				if !ok {
					rows[off] = -1
					continue
				}
				for i := 0; i < 4; i++ {
					for j := 0; j < 4; j++ {
						rows[off] = el.V[i]
						cols[off] = el.V[j]
						vals[off] = k[i][j]
						off++
					}
				}
			}
		}
	})
	for e := 0; e < ne; e++ {
		if rows[e*nv2] < 0 {
			panic(fmt.Sprintf("fem: degenerate element %d", e))
		}
	}
	return la.BuildCSR(n, rows, cols, vals)
}

// AssembleLoad assembles the P1 load vector for a source term f using the
// one-point (barycentric) quadrature rule, exact for constant f and adequate
// for the smooth sources used here.
func AssembleLoad(m *mesh.Mesh, f func(geom.Vec3) float64) []float64 {
	n := m.NumVerts()
	rhs := make([]float64, n)
	for e, el := range m.Elems {
		nv := el.Nv()
		vol := m.ElemVolume(e)
		fc := f(m.Centroid(e))
		w := vol * fc / float64(nv)
		for i := 0; i < nv; i++ {
			rhs[el.V[i]] += w
		}
	}
	return rhs
}

// EliminateDirichlet imposes Dirichlet values g on the vertices marked fixed
// by symmetric elimination, in place on an assembled stiffness matrix a and
// its right-hand side rhs: each fixed row becomes the single entry (i, i, 1),
// and each coupling a_ij of a free row to a fixed column leaves the matrix
// for the right-hand side, rhs[i] −= a_ij·g[j], in column order. The rhs of a
// fixed row is the caller's to set. Every row of an assembled matrix is
// sorted and free of duplicates, and la.BuildCSR drops no zero, so this is
// bit for bit what rebuilding the kept entries through an la.Builder gives,
// without a second matrix. A fixed row with no stored entry would have its
// identity entry overwrite the next row's, so it panics; on a leaf mesh every
// vertex has its diagonal.
func EliminateDirichlet(a *la.CSR, fixed []bool, g, rhs []float64) {
	w := int32(0)
	for i := 0; i < a.N; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		a.RowPtr[i] = w
		if fixed[i] {
			if lo == hi {
				panic(fmt.Sprintf("fem: Dirichlet row %d has no stored entry", i))
			}
			a.Col[w], a.Val[w] = int32(i), 1
			w++
			continue
		}
		for k := lo; k < hi; k++ {
			if j := a.Col[k]; fixed[j] {
				rhs[i] -= a.Val[k] * g[j]
			} else {
				a.Col[w], a.Val[w] = j, a.Val[k]
				w++
			}
		}
	}
	a.RowPtr[a.N] = w
	a.Col, a.Val = a.Col[:w], a.Val[:w]
}

// Problem is a Dirichlet boundary-value problem −Δu = Source with u = G on
// the boundary. A nil Source means Laplace's equation.
type Problem struct {
	Mesh   *mesh.Mesh
	Source func(geom.Vec3) float64 // may be nil
	G      func(geom.Vec3) float64 // Dirichlet data
}

// Solution bundles the nodal solution with solver diagnostics.
type Solution struct {
	U  []float64 // nodal values, indexed like Mesh.Verts
	CG la.CGResult
}

// Solve assembles and solves the problem with Jacobi-preconditioned CG.
// Dirichlet conditions are imposed by symmetric elimination: constrained rows
// become identity rows and their couplings move to the right-hand side.
func Solve(p Problem, tol float64, maxIter int) (*Solution, error) {
	m := p.Mesh
	n := m.NumVerts()
	onBnd := m.BoundaryVertexSet()
	gval := make([]float64, n)
	for v, on := range onBnd {
		if on {
			gval[v] = p.G(m.Verts[v])
		}
	}
	sys := AssembleLaplace(m)
	var rhs []float64
	if p.Source != nil {
		rhs = AssembleLoad(m, p.Source)
	} else {
		rhs = make([]float64, n)
	}
	EliminateDirichlet(sys, onBnd, gval, rhs)
	for i, on := range onBnd {
		if on {
			rhs[i] = gval[i]
		}
	}
	u := make([]float64, n)
	copy(u, gval) // exact at constrained nodes, 0 elsewhere; a good CG start
	res := la.CG(sys, rhs, u, tol, maxIter)
	if !res.Converged {
		return &Solution{U: u, CG: res}, fmt.Errorf("fem: CG did not converge: residual %g after %d iterations", res.Residual, res.Iterations)
	}
	return &Solution{U: u, CG: res}, nil
}

// LInfError returns max_v |u_h(v) − u(v)| over mesh vertices.
func LInfError(m *mesh.Mesh, uh []float64, u func(geom.Vec3) float64) float64 {
	worst := 0.0
	for v := range m.Verts {
		if d := math.Abs(uh[v] - u(m.Verts[v])); d > worst {
			worst = d
		}
	}
	return worst
}

// L2Error returns the element-lumped L2 error ‖u_h − u‖ using vertex values
// and one-point quadrature of the squared difference.
func L2Error(m *mesh.Mesh, uh []float64, u func(geom.Vec3) float64) float64 {
	sum := 0.0
	for e, el := range m.Elems {
		nv := el.Nv()
		vol := m.ElemVolume(e)
		acc := 0.0
		for i := 0; i < nv; i++ {
			d := uh[el.V[i]] - u(m.Verts[el.V[i]])
			acc += d * d
		}
		sum += vol * acc / float64(nv)
	}
	return math.Sqrt(sum)
}
