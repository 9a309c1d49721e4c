package fem

import (
	"fmt"

	"pared/internal/geom"
	"pared/internal/la"
	"pared/internal/mesh"
)

// AssembleMassLumped assembles the lumped P1 mass matrix diagonal:
// M_ii = Σ_{e ∋ i} vol(e)/(d+1). Lumping keeps the implicit-Euler system
// SPD and the diagonal trivially invertible; it is the standard choice for
// adaptive transient FEM where the mesh changes every few steps.
func AssembleMassLumped(m *mesh.Mesh) []float64 {
	diag := make([]float64, m.NumVerts())
	for e, el := range m.Elems {
		nv := el.Nv()
		w := m.ElemVolume(e) / float64(nv)
		for i := 0; i < nv; i++ {
			diag[el.V[i]] += w
		}
	}
	return diag
}

// HeatProblem is the transient heat equation u_t = Δu + f with Dirichlet
// boundary values G (time-dependent) and initial condition U0.
type HeatProblem struct {
	Mesh *mesh.Mesh
	// Source returns f(x, t); nil means no source.
	Source func(p geom.Vec3, t float64) float64
	// G returns the Dirichlet boundary value g(x, t).
	G func(p geom.Vec3, t float64) float64
	// U0 returns the initial condition u(x, 0).
	U0 func(p geom.Vec3) float64
}

// HeatStepper advances the heat problem with implicit (backward) Euler:
//
//	(M + dt·K) uⁿ⁺¹ = M uⁿ + dt·fⁿ⁺¹,  u = g on ∂Ω
//
// The system is assembled once per mesh; Step solves with CG.
type HeatStepper struct {
	prob HeatProblem
	// sys is the symmetric reduced system M + dt·K with Dirichlet rows as
	// identity and their couplings removed; bc holds the removed couplings
	// (interior row i, boundary dof j, weight dt·K_ij) so the right-hand
	// side can be corrected per step with the current boundary values.
	sys  *la.CSR
	bc   []bcCoupling
	mass []float64
	bnd  []int32 // boundary dofs, ascending
	dt   float64
	// U is the current nodal solution; Time the current time.
	U    []float64
	Time float64
}

type bcCoupling struct {
	i, j int32
	w    float64
}

// NewHeatStepper prepares the stepper at time t0 with step dt.
func NewHeatStepper(prob HeatProblem, t0, dt float64) *HeatStepper {
	m := prob.Mesh
	n := m.NumVerts()
	hs := &HeatStepper{prob: prob, dt: dt, Time: t0, mass: AssembleMassLumped(m)}
	onBnd := m.BoundaryVertexSet()
	for v, on := range onBnd {
		if on {
			hs.bnd = append(hs.bnd, int32(v))
		}
	}
	k := AssembleLaplace(m)
	b := la.NewBuilder(n)
	for i := 0; i < n; i++ {
		if onBnd[i] {
			b.Add(i, i, 1)
			continue
		}
		b.Add(i, i, hs.mass[i])
		for kk := k.RowPtr[i]; kk < k.RowPtr[i+1]; kk++ {
			j := k.Col[kk]
			if onBnd[j] {
				hs.bc = append(hs.bc, bcCoupling{int32(i), j, dt * k.Val[kk]})
			} else {
				b.Add(i, int(j), dt*k.Val[kk])
			}
		}
	}
	hs.sys = b.Build()
	hs.U = make([]float64, n)
	for v := range hs.U {
		hs.U[v] = prob.U0(m.Verts[v])
	}
	for _, v := range hs.bnd {
		hs.U[v] = prob.G(m.Verts[v], t0)
	}
	return hs
}

// Step advances one time step, returning the CG result.
func (hs *HeatStepper) Step(tol float64, maxIter int) (la.CGResult, error) {
	m := hs.prob.Mesh
	n := m.NumVerts()
	tNew := hs.Time + hs.dt
	rhs := make([]float64, n)
	var load []float64
	if hs.prob.Source != nil {
		load = AssembleLoad(m, func(p geom.Vec3) float64 { return hs.prob.Source(p, tNew) })
	}
	for i := 0; i < n; i++ {
		rhs[i] = hs.mass[i] * hs.U[i]
		if load != nil {
			rhs[i] += hs.dt * load[i]
		}
	}
	gval := make([]float64, n)
	for _, v := range hs.bnd {
		gval[v] = hs.prob.G(m.Verts[v], tNew)
		rhs[v] = gval[v]
	}
	for _, c := range hs.bc {
		rhs[c.i] -= c.w * gval[c.j]
	}
	u := append([]float64(nil), hs.U...)
	for _, v := range hs.bnd {
		u[v] = gval[v]
	}
	res := la.CG(hs.sys, rhs, u, tol, maxIter)
	if !res.Converged {
		return res, fmt.Errorf("fem: heat step CG did not converge: residual %g", res.Residual)
	}
	hs.U = u
	hs.Time = tNew
	return res, nil
}

// InterpolateTo transfers the current solution onto a new mesh by P1
// evaluation: for each new vertex, locate a containing element of the old
// mesh within the same refinement tree and evaluate the interpolant. Used
// when the mesh adapts between time steps. oldLeafRoot/newLeafRoot give the
// coarse tree of each element; vertex→tree association uses any incident
// element.
func (hs *HeatStepper) InterpolateTo(newMesh *mesh.Mesh) []float64 {
	old := hs.prob.Mesh
	out := make([]float64, newMesh.NumVerts())
	done := make([]bool, newMesh.NumVerts())
	// Brute-force point location is fine at example scale; production codes
	// would use the refinement trees for O(depth) location.
	for v := 0; v < newMesh.NumVerts(); v++ {
		p := newMesh.Verts[v]
		for e := 0; e < old.NumElems(); e++ {
			if old.Contains(e, p) {
				out[v] = evalP1(old, hs.U, e, p)
				done[v] = true
				break
			}
		}
	}
	for v := range out {
		if !done[v] {
			// Outside due to rounding: nearest old vertex.
			best, bd := 0, -1.0
			for ov := range old.Verts {
				d := old.Verts[ov].Dist2(newMesh.Verts[v])
				if bd < 0 || d < bd {
					best, bd = ov, d
				}
			}
			out[v] = hs.U[best]
		}
	}
	return out
}

// evalP1 evaluates the P1 interpolant of u on element e at point p via
// barycentric coordinates.
func evalP1(m *mesh.Mesh, u []float64, e int, p geom.Vec3) float64 {
	el := m.Elems[e]
	if m.Dim == mesh.D2 {
		a, b, c := m.Verts[el.V[0]], m.Verts[el.V[1]], m.Verts[el.V[2]]
		total := geom.TriangleAreaSigned(a, b, c)
		l0 := geom.TriangleAreaSigned(p, b, c) / total
		l1 := geom.TriangleAreaSigned(a, p, c) / total
		l2 := 1 - l0 - l1
		return l0*u[el.V[0]] + l1*u[el.V[1]] + l2*u[el.V[2]]
	}
	a, b, c, d := m.Verts[el.V[0]], m.Verts[el.V[1]], m.Verts[el.V[2]], m.Verts[el.V[3]]
	total := geom.TetVolumeSigned(a, b, c, d)
	l0 := geom.TetVolumeSigned(p, b, c, d) / total
	l1 := geom.TetVolumeSigned(a, p, c, d) / total
	l2 := geom.TetVolumeSigned(a, b, p, d) / total
	l3 := 1 - l0 - l1 - l2
	return l0*u[el.V[0]] + l1*u[el.V[1]] + l2*u[el.V[2]] + l3*u[el.V[3]]
}
