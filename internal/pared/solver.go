package pared

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/la"
	"pared/internal/par"
)

// This file implements PARED's distributed equation solve: each rank
// assembles the P1 stiffness contribution of its own leaf elements; degrees
// of freedom on the shard interface, the ranks sharing each and the Dirichlet
// set are read off the tree boundaries, the replicated coarse mesh and the
// owner map with no communication (buildDofPlan), halo lists are ordered by
// global VertexID so both sides agree, and matrix/vector contributions are
// summed across sharing ranks; CG runs with global inner products. The result
// at every rank's vertices matches the serial solve of the gathered mesh from
// the same initial guess to solver tolerance, in the same number of
// iterations (see TestDistributedSolveMatchesSerial and
// TestDistributedSolveWarmMatchesSerial).
//
// Message schedule, per CG iteration and rank: one par float-lane message to
// each neighbour (dofPlan.exchange, after the SpMV) and two rank-ordered
// reductions (p·Ap, then r·z and r·r together). Nothing in that path
// allocates; see DESIGN.md §3.1. A warm solve adds one exchange before CG
// (warmStart).

const tagDofs par.Tag = 110 + iota

// DistSolution is one rank's portion of a distributed FEM solution.
type DistSolution struct {
	// U holds nodal values indexed like the local leaf mesh vertices.
	U []float64
	// Mesh is the local leaf mesh the solution lives on.
	Mesh *forest.LeafMeshResult
	// Iterations and Residual report the (global) CG run.
	Iterations int
	Residual   float64
	Converged  bool

	// plan carries the communication pattern for reuse by ZZEstimator.
	plan *dofPlan
}

// dofPlan describes the communication pattern for one solve: which local
// dofs are shared with which ranks, which rank "owns" each dof (for inner
// products, the lowest sharer), and which dofs carry Dirichlet data.
type dofPlan struct {
	leaf *forest.LeafMeshResult
	// owned[i] is true when this rank is the lowest sharer of dof i.
	owned []bool
	// dirichlet[i] is true for the dofs on the domain boundary; bnd lists
	// them in ascending order.
	dirichlet []bool
	bnd       []int32
	// nbrs lists the ranks this rank shares dofs with, ascending.
	nbrs []halo
	// shared lists every dof shared with at least one neighbour.
	shared []int32
	// acc is the dense accumulator of exchange, one slot per dof and word,
	// sized on first use; all zero between calls.
	acc []float64
	// flip selects the send buffer of the current exchange.
	flip int
}

// halo is the interface with one neighbouring rank.
type halo struct {
	rank int
	// idx lists the local dofs shared with rank, sorted by VertexID — the
	// same order on both sides.
	idx []int32
	// send holds two alternating send buffers. One would be unsafe: the
	// neighbour reads the buffer it is sent, and may still be reading
	// exchange t when this rank packs exchange t+1. With two, the refill at
	// t+2 comes after this rank received the neighbour's t+1 message, which
	// the neighbour sent after finishing its t reads (the reuse-distance
	// argument of par.AllGatherMoves).
	send [2][]float64
}

// buildDofPlan derives the sharing pattern and the Dirichlet set with no
// communication. A vertex can be shared, or on ∂Ω, only if it lies on the
// boundary of its tree, and there forest.VisitRootBoundary names the coarse
// face it lies in: the root vertices spanning it are the ones opposite none of
// the root facets the vertex is on. The mesh is conformal, so every coarse
// element containing that face has the vertex too; the replicated owner map
// says whose they are, and the vertex is on ∂Ω exactly when one of them has a
// boundary facet containing the face. Both sides of an interface derive the
// same lists from the same replicated data.
func (e *Engine) buildDofPlan() *dofPlan {
	leaf := e.F.LeafMesh()
	n := leaf.Mesh.NumVerts()
	plan := &dofPlan{
		leaf:      leaf,
		owned:     make([]bool, n),
		dirichlet: make([]bool, n),
	}
	for i := range plan.owned {
		plan.owned[i] = true
	}
	dofOf := make([]int32, len(e.F.Coords)) // forest vertex -> dof; inverts Vert2Local
	for i, fv := range leaf.Vert2Local {
		dofOf[fv] = int32(i)
	}
	me := int32(e.Comm.Rank())
	nv := e.topo.nv
	seen := make([]bool, n)
	sharedWith := make([][]int32, e.Comm.Size()) // per rank, the dofs shared with it
	for _, r := range e.F.Roots() {
		rootV := e.Coarse.Elems[r].V
		e.F.VisitRootBoundary(r, func(id forest.NodeID, on [4]uint8) {
			for k, fv := range e.F.Node(id).Verts[:nv] {
				dof := dofOf[fv]
				if on[k] == 0 || seen[dof] {
					continue
				}
				seen[dof] = true
				// The coarse vertices spanning the coarse face the dof lies in.
				face := make([]int32, 0, 4)
				for i, v := range rootV[:nv] {
					if on[k]&(1<<i) == 0 {
						face = append(face, v)
					}
				}
				shared := false
				for _, c := range e.topo.elemsAt(face[0]) {
					cv := e.Coarse.Elems[c].V
					if !containsAll(cv[:], face) {
						continue
					}
					// A dof is entered once (seen), so a repeated sharer can only
					// find it at the end of its list.
					if q := e.Owner[c]; q != me && (len(sharedWith[q]) == 0 || sharedWith[q][len(sharedWith[q])-1] != dof) {
						sharedWith[q] = append(sharedWith[q], dof)
						if q < me {
							plan.owned[dof] = false
						}
						shared = true
					}
					across := e.topo.acrossOf(c)
					for j, far := range across[:nv] {
						if far < 0 && !slices.Contains(face, cv[j]) {
							plan.dirichlet[dof] = true // facet j of c is on ∂Ω and contains the face
						}
					}
				}
				if shared {
					plan.shared = append(plan.shared, dof)
				}
			}
		})
	}
	for q, idx := range sharedWith {
		if len(idx) == 0 {
			continue
		}
		slices.SortFunc(idx, func(a, b int32) int {
			return cmp.Compare(e.F.VIDs[leaf.Vert2Local[a]], e.F.VIDs[leaf.Vert2Local[b]])
		})
		plan.nbrs = append(plan.nbrs, halo{
			rank: q,
			idx:  idx,
			send: [2][]float64{make([]float64, len(idx)), make([]float64, len(idx))},
		})
	}
	for i, d := range plan.dirichlet {
		if d {
			plan.bnd = append(plan.bnd, int32(i))
		}
	}
	return plan
}

// containsAll reports whether every element of want is in have.
func containsAll(have, want []int32) bool {
	for _, v := range want {
		if !slices.Contains(have, v) {
			return false
		}
	}
	return true
}

// exchange adds into x, at every shared dof, the values the other sharers
// hold there; x carries w consecutive words per dof. With skipDirichlet the
// Dirichlet dofs are left untouched (their identity rows must not be double
// counted). Neighbour contributions are accumulated in ascending rank order
// and then added to the local value once, so the sharers of a dof end with
// the same sum only up to rounding when three or more ranks share it: each
// adds the others' values to its own, in a different association.
func (p *dofPlan) exchange(c *par.Comm, x []float64, w int, skipDirichlet bool) {
	p.flip ^= 1
	for k := range p.nbrs {
		h := &p.nbrs[k]
		buf := h.send[p.flip][:0]
		for _, i := range h.idx {
			buf = append(buf, x[int(i)*w:int(i)*w+w]...)
		}
		h.send[p.flip] = buf
		c.SendFloat64s(h.rank, tagDofs, buf)
	}
	if len(p.acc) < w*len(p.owned) {
		p.acc = make([]float64, w*len(p.owned))
	}
	acc := p.acc
	for k := range p.nbrs {
		h := &p.nbrs[k]
		vals, _ := c.RecvFloat64s(h.rank, tagDofs)
		if len(vals) != w*len(h.idx) {
			panic(fmt.Sprintf("pared: dof exchange length mismatch: rank %d got %d values from rank %d, want %d",
				c.Rank(), len(vals), h.rank, w*len(h.idx)))
		}
		for s, i := range h.idx {
			for j := 0; j < w; j++ {
				acc[int(i)*w+j] += vals[s*w+j]
			}
		}
	}
	for _, i := range p.shared {
		skip := skipDirichlet && p.dirichlet[i]
		for j := int(i) * w; j < int(i)*w+w; j++ {
			if !skip {
				x[j] += acc[j]
			}
			acc[j] = 0
		}
	}
}

// SolveLaplace solves −Δu = source (source may be nil) with Dirichlet data g
// on the domain boundary, distributed across the engine's ranks with
// Jacobi-preconditioned CG. Every rank must call it collectively.
//
// Each solve starts from the last one: the solution is written into the
// forest's field (forest.Forest.Field), which migrates with its trees and
// interpolates onto new midpoints, and the next solve takes it as its initial
// guess (warmStart). The first solve on an engine finds no field and starts
// from zero, as a solve always did.
func (e *Engine) SolveLaplace(source, g func(geom.Vec3) float64, tol float64, maxIter int) (*DistSolution, error) {
	plan := e.buildDofPlan()
	sys, rhs, gval := e.assembleLaplace(plan, source, g)
	sol := &DistSolution{Mesh: plan.leaf, plan: plan}
	u, it, res, conv := e.distCG(plan, sys, rhs, gval, e.warmStart(plan), tol, maxIter)
	sol.U, sol.Iterations, sol.Residual, sol.Converged = u, it, res, conv
	if e.F.Field == nil {
		e.F.Field = make([]float64, len(e.F.Coords))
	}
	for i, fv := range plan.leaf.Vert2Local {
		e.F.Field[fv] = u[i]
	}
	if !conv {
		return sol, fmt.Errorf("pared: distributed CG did not converge: residual %g after %d iterations", res, it)
	}
	return sol, nil
}

// assembleLaplace assembles this rank's share of the reduced system: the
// local stiffness matrix with Dirichlet rows replaced by identity rows, the
// globally summed right-hand side, and the Dirichlet values gval.
func (e *Engine) assembleLaplace(plan *dofPlan, source, g func(geom.Vec3) float64) (sys *la.CSR, rhs, gval []float64) {
	m := plan.leaf.Mesh
	n := m.NumVerts()
	onBnd := plan.dirichlet

	// Per-rank assembly and local Dirichlet elimination. The global system
	// is the sum of the per-rank contributions at shared interior dofs:
	//
	//	A_glob = Σ_r A_r,   rhs_glob,i = Σ_r (b_r,i − Σ_{j∈B} A_r,ij·g_j)
	//
	// so eliminating locally and then summing the eliminated right-hand
	// sides over sharers (interior dofs only) yields the global reduced
	// system; boundary rows are identity rows with rhs = g, never summed.
	a := fem.AssembleLaplace(m)
	rhs = make([]float64, n)
	if source != nil {
		rhs = fem.AssembleLoad(m, source)
	}
	gval = make([]float64, n)
	for _, v := range plan.bnd {
		gval[v] = g(m.Verts[v])
	}
	b := la.NewBuilder(n)
	for i := 0; i < n; i++ {
		if onBnd[i] {
			b.Add(i, i, 1)
			continue
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := int(a.Col[k])
			v := a.Val[k]
			if onBnd[j] {
				rhs[i] -= v * gval[j]
			} else {
				b.Add(i, j, v)
			}
		}
	}
	plan.exchange(e.Comm, rhs, 1, true)
	for _, v := range plan.bnd {
		rhs[v] = gval[v]
	}
	return b.Build(), rhs, gval
}

// warmStart returns the initial guess of a solve: nil if the forest has no
// field, else the field at the dofs. With three or more sharers, the copies of
// a shared dof can differ by rounding (see exchange), so one owner-wins
// exchange makes them identical first: every copy but the owner's is zeroed,
// and the sum of one value and zeros is that value exactly. Every rank holds a
// field or none alike, since each solve sets one on every rank, so all skip
// the exchange or none.
func (e *Engine) warmStart(plan *dofPlan) []float64 {
	if e.F.Field == nil {
		return nil
	}
	x := make([]float64, len(plan.owned))
	for i, fv := range plan.leaf.Vert2Local {
		if plan.owned[i] {
			x[i] = e.F.Field[fv]
		}
	}
	plan.exchange(e.Comm, x, 1, false)
	return x
}

// distCG is Jacobi-preconditioned CG with summed SpMV and owned-dof inner
// products: each shared dof counts once, at its owning rank, and every
// partial sum runs in ascending dof order. It starts from x0, which it takes
// over as u, or from zero if x0 is nil; Dirichlet dofs start at gval either
// way.
func (e *Engine) distCG(plan *dofPlan, sys *la.CSR, rhs, gval, x0 []float64, tol float64, maxIter int) (u []float64, iters int, resid float64, converged bool) {
	n := sys.N
	owned := plan.owned
	// Jacobi needs the GLOBAL diagonal (summed across sharers).
	diag := sys.Diag()
	plan.exchange(e.Comm, diag, 1, true)
	inv := make([]float64, n)
	for i, v := range diag {
		if v != 0 {
			inv[i] = 1 / v
		} else {
			inv[i] = 1
		}
	}
	u = x0
	if u == nil {
		u = make([]float64, n)
	}
	for _, v := range plan.bnd {
		u[v] = gval[v]
	}
	r := make([]float64, n)
	sys.MulVec(r, u)
	plan.exchange(e.Comm, r, 1, true)
	for i := range r {
		r[i] = rhs[i] - r[i]
	}
	// Boundary rows are identity with u already exact: force residual 0.
	for _, v := range plan.bnd {
		r[v] = 0
	}
	z := make([]float64, n)
	p := make([]float64, n)
	var rz, rr, bb float64
	for i := range r {
		z[i] = inv[i] * r[i]
		p[i] = z[i]
		if owned[i] {
			rz += r[i] * z[i]
			rr += r[i] * r[i]
			bb += rhs[i] * rhs[i]
		}
	}
	// red carries the partial inner products through the reductions.
	red := [3]float64{rz, rr, bb}
	e.Comm.AllReduceSumFloat64s(red[:])
	rz, rr = red[0], red[1]
	bnorm := math.Sqrt(red[2])
	// Exact zero-rhs guard: any epsilon would rescale the stopping test.
	if bnorm == 0 {
		bnorm = 1
	}
	ap := make([]float64, n)
	for iters = 0; iters < maxIter; iters++ {
		resid = math.Sqrt(rr)
		if resid <= tol*bnorm {
			return u, iters, resid, true
		}
		sys.MulVec(ap, p)
		plan.exchange(e.Comm, ap, 1, true)
		for _, v := range plan.bnd {
			ap[v] = p[v] // identity rows
		}
		pap := 0.0
		for i := range p {
			if owned[i] {
				pap += p[i] * ap[i]
			}
		}
		red[0] = pap
		e.Comm.AllReduceSumFloat64s(red[:1])
		pap = red[0]
		if pap <= 0 {
			return u, iters, resid, false
		}
		alpha := rz / pap
		// r·z and r·r come from the same r: one sweep, one reduction.
		rzNew := 0.0
		rr = 0
		for i := range u {
			u[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			z[i] = inv[i] * r[i]
			if owned[i] {
				rzNew += r[i] * z[i]
				rr += r[i] * r[i]
			}
		}
		red[0], red[1] = rzNew, rr
		e.Comm.AllReduceSumFloat64s(red[:2])
		beta := red[0] / rz
		rz, rr = red[0], red[1]
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	resid = math.Sqrt(rr)
	return u, iters, resid, resid <= tol*bnorm
}
