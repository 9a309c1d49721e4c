package pared

import (
	"fmt"
	"math"
	"sort"

	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/la"
	"pared/internal/par"
)

// This file implements PARED's distributed equation solve: each rank
// assembles the P1 stiffness contribution of its own leaf elements; degrees
// of freedom on the shard interface are identified by their global VertexIDs
// and their matrix/vector contributions are summed across sharing ranks; CG
// runs with global inner products. The result at every rank's vertices
// matches the serial solve of the gathered mesh (see TestDistributedSolve).

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
// dofs are shared with which ranks, and which rank "owns" each dof (for
// inner products, the lowest sharer).
type dofPlan struct {
	leaf *forest.LeafMeshResult
	// sharers[i] lists the other ranks sharing local dof i (usually empty).
	sharers [][]int32
	// owned[i] is true when this rank is the lowest sharer of dof i.
	owned []bool
	// sendIdx[r] lists the local dof indices exchanged with rank r (same
	// order on both sides: sorted by VertexID).
	sendIdx map[int32][]int32
}

// buildDofPlan exchanges boundary vertex IDs with all ranks and derives the
// sharing pattern. Only shard-boundary vertices can be shared, so the
// exchanged lists are O(interface size).
func (e *Engine) buildDofPlan() *dofPlan {
	leaf := e.F.LeafMesh()
	plan := &dofPlan{
		leaf:    leaf,
		sharers: make([][]int32, leaf.Mesh.NumVerts()),
		owned:   make([]bool, leaf.Mesh.NumVerts()),
		sendIdx: make(map[int32][]int32),
	}
	// Candidate shared dofs: vertices of shard-boundary facets.
	count := make(map[gfacet]int)
	e.eachLeafFacet(func(f gfacet, _ int32) { count[f]++ })
	cand := make(map[forest.VertexID]int32) // VertexID -> local leaf-mesh dof
	vid2dof := make(map[forest.VertexID]int32, leaf.Mesh.NumVerts())
	for i, fv := range leaf.Vert2Local {
		vid2dof[e.F.VIDs[fv]] = int32(i)
	}
	for f, n := range count {
		if n != 1 {
			continue
		}
		for _, id := range f {
			if id == ^forest.VertexID(0) {
				continue
			}
			if dof, ok := vid2dof[id]; ok {
				cand[id] = dof
			}
		}
	}
	ids := make([]forest.VertexID, 0, len(cand))
	for id := range cand {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Candidate exchange with every rank (p is small; the lists are
	// interface-sized), one word per vertex ID.
	words := make([]int64, len(ids))
	for i, id := range ids {
		words[i] = int64(id)
	}
	me := int32(e.Comm.Rank())
	for i := range plan.owned {
		plan.owned[i] = true
	}
	for from, theirs := range e.Comm.AllGatherInt64(words) {
		if from == e.Comm.Rank() {
			continue
		}
		their := make(map[forest.VertexID]bool, len(theirs))
		for _, w := range theirs {
			their[forest.VertexID(w)] = true
		}
		var common []int32
		for _, id := range ids {
			if their[id] {
				dof := cand[id]
				common = append(common, dof)
				plan.sharers[dof] = append(plan.sharers[dof], int32(from))
				if int32(from) < me {
					plan.owned[dof] = false
				}
			}
		}
		if len(common) > 0 {
			plan.sendIdx[int32(from)] = common
		}
	}
	return plan
}

// sumShared adds the contributions of sharing ranks into x at shared dofs,
// making x globally consistent (every sharer ends with the same summed
// value).
func (p *dofPlan) sumShared(c *par.Comm, x []float64) {
	ranks := make([]int32, 0, len(p.sendIdx))
	for r := range p.sendIdx {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	type msg struct {
		vals []float64
	}
	for _, r := range ranks {
		idx := p.sendIdx[r]
		vals := make([]float64, len(idx))
		for k, i := range idx {
			vals[k] = x[i]
		}
		c.Send(int(r), tagDofs, msg{vals})
	}
	// Accumulate into a copy so each rank adds the same original values.
	add := make(map[int32]float64)
	for _, r := range ranks {
		data, _ := c.Recv(int(r), tagDofs)
		vals := data.(msg).vals
		idx := p.sendIdx[r]
		if len(vals) != len(idx) {
			panic(fmt.Sprintf("pared: dof exchange length mismatch with rank %d", r))
		}
		for k, i := range idx {
			add[i] += vals[k]
		}
	}
	for i, v := range add {
		x[i] += v
	}
}

// dotOwned computes the global inner product, counting each shared dof once
// (at its owning rank).
func (p *dofPlan) dotOwned(c *par.Comm, x, y []float64) float64 {
	s := 0.0
	for i := range x {
		if p.owned[i] {
			s += x[i] * y[i]
		}
	}
	return allReduceFloat(c, s)
}

// allReduceFloat sums a float64 across ranks (bit-identical on every rank,
// since the coordinator performs the reduction in rank order).
func allReduceFloat(c *par.Comm, v float64) float64 {
	vals := c.Gather(0, v)
	var sum float64
	if c.Rank() == 0 {
		for _, x := range vals {
			sum += x.(float64)
		}
	}
	return c.Bcast(0, sum).(float64)
}

// SolveLaplace solves −Δu = source (source may be nil) with Dirichlet data g
// on the domain boundary, distributed across the engine's ranks with
// Jacobi-preconditioned CG. Every rank must call it collectively.
func (e *Engine) SolveLaplace(source, g func(geom.Vec3) float64, tol float64, maxIter int) (*DistSolution, error) {
	plan := e.buildDofPlan()
	leaf := plan.leaf
	m := leaf.Mesh
	n := m.NumVerts()

	// Domain (not shard) boundary: a facet with no element on the other side
	// anywhere. Shard-boundary facets have a remote partner; true boundary
	// facets do not. Decide by facet counts across all ranks.
	onBnd := e.domainBoundaryVerts(plan)

	// Per-rank assembly and local Dirichlet elimination. The global system
	// is the sum of the per-rank contributions at shared interior dofs:
	//
	//	A_glob = Σ_r A_r,   rhs_glob,i = Σ_r (b_r,i − Σ_{j∈B} A_r,ij·g_j)
	//
	// so eliminating locally and then summing the eliminated right-hand
	// sides over sharers (interior dofs only) yields the global reduced
	// system; boundary rows are identity rows with rhs = g, never summed.
	a := fem.AssembleLaplace(m)
	rhs := make([]float64, n)
	if source != nil {
		rhs = fem.AssembleLoad(m, source)
	}
	gval := make([]float64, n)
	//paredlint:allow maporder -- one write per key; g is a pure coefficient function
	for v := range onBnd {
		gval[v] = g(m.Verts[v])
	}
	b := la.NewBuilder(n)
	for i := 0; i < n; i++ {
		if onBnd[int32(i)] {
			b.Add(i, i, 1)
			continue
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := int(a.Col[k])
			v := a.Val[k]
			if onBnd[int32(j)] {
				rhs[i] -= v * gval[j]
			} else {
				b.Add(i, j, v)
			}
		}
	}
	sys := b.Build()
	plan.sumSharedSkip(e.Comm, rhs, onBnd)
	for v := range onBnd {
		rhs[v] = gval[v]
	}

	sol := &DistSolution{Mesh: leaf, plan: plan}
	u, it, res, conv := e.distCG(plan, sys, rhs, gval, onBnd, tol, maxIter, source)
	sol.U, sol.Iterations, sol.Residual, sol.Converged = u, it, res, conv
	if !conv {
		return sol, fmt.Errorf("pared: distributed CG did not converge: residual %g after %d iterations", res, it)
	}
	return sol, nil
}

// domainBoundaryVerts returns the set of local dofs on the true domain
// boundary (facets with no partner on any rank).
func (e *Engine) domainBoundaryVerts(plan *dofPlan) map[int32]bool {
	count := make(map[gfacet]int)
	e.eachLeafFacet(func(f gfacet, _ int32) { count[f]++ })
	var mine []gfacet
	for f, n := range count {
		if n == 1 {
			mine = append(mine, f)
		}
	}
	sort.Slice(mine, func(i, j int) bool { return lessGFacet(mine[i], mine[j]) })
	// Three words per facet on the wire.
	words := make([]int64, 0, 3*len(mine))
	for _, f := range mine {
		words = append(words, int64(f[0]), int64(f[1]), int64(f[2]))
	}
	remote := make(map[gfacet]bool)
	for from, ws := range e.Comm.AllGatherInt64(words) {
		if from == e.Comm.Rank() {
			continue
		}
		for i := 0; i < len(ws); i += 3 {
			remote[gfacet{forest.VertexID(ws[i]), forest.VertexID(ws[i+1]), forest.VertexID(ws[i+2])}] = true
		}
	}
	vid2dof := make(map[forest.VertexID]int32, plan.leaf.Mesh.NumVerts())
	for i, fv := range plan.leaf.Vert2Local {
		vid2dof[e.F.VIDs[fv]] = int32(i)
	}
	// Local view: vertices of my true-boundary facets, one word per ID.
	var bndIDs []int64
	seen := make(map[forest.VertexID]bool)
	for _, f := range mine {
		if remote[f] {
			continue // shard boundary, not domain boundary
		}
		for _, id := range f {
			if id == ^forest.VertexID(0) || seen[id] {
				continue
			}
			seen[id] = true
			bndIDs = append(bndIDs, int64(id))
		}
	}
	// Classification must be GLOBAL: a rank can touch a boundary vertex
	// without owning any of its boundary facets (e.g. after migration), so
	// union every rank's view — all sharers must agree on Dirichlet rows.
	sort.Slice(bndIDs, func(i, j int) bool { return bndIDs[i] < bndIDs[j] })
	out := make(map[int32]bool)
	for _, ids := range e.Comm.AllGatherInt64(bndIDs) {
		for _, id := range ids {
			if dof, ok := vid2dof[forest.VertexID(id)]; ok {
				out[dof] = true
			}
		}
	}
	return out
}

// distCG is Jacobi-preconditioned CG with summed SpMV and owned-dof inner
// products.
func (e *Engine) distCG(plan *dofPlan, sys *la.CSR, rhs, gval []float64, onBnd map[int32]bool, tol float64, maxIter int, source func(geom.Vec3) float64) (u []float64, iters int, resid float64, converged bool) {
	n := sys.N
	// Jacobi needs the GLOBAL diagonal (summed across sharers).
	diag := sys.Diag()
	plan.sumSharedSkip(e.Comm, diag, onBnd)
	inv := make([]float64, n)
	for i, v := range diag {
		//paredlint:allow floateq -- exact zero-diagonal guard before forming 1/v
		if v != 0 {
			inv[i] = 1 / v
		} else {
			inv[i] = 1
		}
	}
	u = make([]float64, n)
	for v := range onBnd {
		u[v] = gval[v]
	}
	spmv := func(dst, x []float64) {
		sys.MulVec(dst, x)
		plan.sumSharedSkip(e.Comm, dst, onBnd)
	}
	r := make([]float64, n)
	spmv(r, u)
	for i := range r {
		r[i] = rhs[i] - r[i]
	}
	// Boundary rows are identity with u already exact: residual 0. But the
	// summed SpMV may have added partner contributions at shared boundary
	// dofs (skipped above via sumSharedSkip). Force exact zeros.
	for v := range onBnd {
		r[v] = 0
	}
	z := make([]float64, n)
	for i := range z {
		z[i] = inv[i] * r[i]
	}
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	rz := plan.dotOwned(e.Comm, r, z)
	bnorm := math.Sqrt(plan.dotOwned(e.Comm, rhs, rhs))
	//paredlint:allow floateq -- exact zero-rhs guard; any epsilon would rescale the stopping test
	if bnorm == 0 {
		bnorm = 1
	}
	for iters = 0; iters < maxIter; iters++ {
		rn := math.Sqrt(plan.dotOwned(e.Comm, r, r))
		resid = rn
		if rn <= tol*bnorm {
			converged = true
			return u, iters, resid, true
		}
		spmv(ap, p)
		for v := range onBnd {
			ap[v] = p[v] // identity rows
		}
		pap := plan.dotOwned(e.Comm, p, ap)
		if pap <= 0 {
			return u, iters, resid, false
		}
		alpha := rz / pap
		for i := range u {
			u[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		for i := range z {
			z[i] = inv[i] * r[i]
		}
		rzNew := plan.dotOwned(e.Comm, r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	resid = math.Sqrt(plan.dotOwned(e.Comm, r, r))
	converged = resid <= tol*bnorm
	return u, iters, resid, converged
}

// sumSharedSkip sums shared-dof contributions like sumShared but leaves
// Dirichlet rows untouched (their identity rows must not be double counted).
func (p *dofPlan) sumSharedSkip(c *par.Comm, x []float64, skip map[int32]bool) {
	masked := append([]float64(nil), x...)
	p.sumShared(c, masked)
	for i := range x {
		if !skip[int32(i)] {
			x[i] = masked[i]
		}
	}
}
