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

// The distributed solve as it stood before the packed float-lane exchange,
// kept verbatim (names prefixed ref) as the reference schedule:
// TestDistCGBitIdenticalToReference requires SolveLaplace to reproduce its
// U, Iterations and Residual bit for bit. It builds its own plan from its own
// facet passes, exchanges boxed messages through map accumulators and reduces
// one inner product at a time through Gather+Bcast. A warm solve (x0 not nil)
// first makes the copies of x0 identical, zeroing every copy but the owner's
// and summing them through the same exchange.

type refDofPlan struct {
	leaf    *forest.LeafMeshResult
	owned   []bool
	sendIdx map[int32][]int32
}

func (e *Engine) refBuildDofPlan() *refDofPlan {
	leaf := e.F.LeafMesh()
	plan := &refDofPlan{
		leaf:    leaf,
		owned:   make([]bool, leaf.Mesh.NumVerts()),
		sendIdx: make(map[int32][]int32),
	}
	count := make(map[refGFacet]int)
	e.refEachLeafFacet(func(f refGFacet, _ int32) { count[f]++ })
	cand := make(map[forest.VertexID]int32)
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

func (p *refDofPlan) sumShared(c *par.Comm, x []float64) {
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

func (p *refDofPlan) sumSharedSkip(c *par.Comm, x []float64, skip map[int32]bool) {
	masked := append([]float64(nil), x...)
	p.sumShared(c, masked)
	for i := range x {
		if !skip[int32(i)] {
			x[i] = masked[i]
		}
	}
}

func (p *refDofPlan) dotOwned(c *par.Comm, x, y []float64) float64 {
	s := 0.0
	for i := range x {
		if p.owned[i] {
			s += x[i] * y[i]
		}
	}
	return refAllReduceFloat(c, s)
}

func refAllReduceFloat(c *par.Comm, v float64) float64 {
	vals := c.Gather(0, v)
	var sum float64
	if c.Rank() == 0 {
		for _, x := range vals {
			sum += x.(float64)
		}
	}
	return c.Bcast(0, sum).(float64)
}

func (e *Engine) refSolveLaplace(x0 []float64, source, g func(geom.Vec3) float64, tol float64, maxIter int) *DistSolution {
	plan := e.refBuildDofPlan()
	leaf := plan.leaf
	m := leaf.Mesh
	n := m.NumVerts()
	onBnd := e.refDomainBoundaryVerts(plan)
	a := fem.AssembleLaplace(m)
	rhs := make([]float64, n)
	if source != nil {
		rhs = fem.AssembleLoad(m, source)
	}
	gval := make([]float64, n)
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
	if x0 != nil {
		x0 = append([]float64(nil), x0...)
		for i, own := range plan.owned {
			if !own {
				x0[i] = 0
			}
		}
		plan.sumShared(e.Comm, x0)
	}
	sol := &DistSolution{Mesh: leaf}
	sol.U, sol.Iterations, sol.Residual, sol.Converged = e.refDistCG(plan, sys, rhs, gval, x0, onBnd, tol, maxIter)
	return sol
}

func (e *Engine) refDomainBoundaryVerts(plan *refDofPlan) map[int32]bool {
	count := make(map[refGFacet]int)
	e.refEachLeafFacet(func(f refGFacet, _ int32) { count[f]++ })
	var mine []refGFacet
	for f, n := range count {
		if n == 1 {
			mine = append(mine, f)
		}
	}
	sort.Slice(mine, func(i, j int) bool { return refLessGFacet(mine[i], mine[j]) })
	words := make([]int64, 0, 3*len(mine))
	for _, f := range mine {
		words = append(words, int64(f[0]), int64(f[1]), int64(f[2]))
	}
	remote := make(map[refGFacet]bool)
	for from, ws := range e.Comm.AllGatherInt64(words) {
		if from == e.Comm.Rank() {
			continue
		}
		for i := 0; i < len(ws); i += 3 {
			remote[refGFacet{forest.VertexID(ws[i]), forest.VertexID(ws[i+1]), forest.VertexID(ws[i+2])}] = true
		}
	}
	vid2dof := make(map[forest.VertexID]int32, plan.leaf.Mesh.NumVerts())
	for i, fv := range plan.leaf.Vert2Local {
		vid2dof[e.F.VIDs[fv]] = int32(i)
	}
	var bndIDs []int64
	seen := make(map[forest.VertexID]bool)
	for _, f := range mine {
		if remote[f] {
			continue
		}
		for _, id := range f {
			if id == ^forest.VertexID(0) || seen[id] {
				continue
			}
			seen[id] = true
			bndIDs = append(bndIDs, int64(id))
		}
	}
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

func (e *Engine) refDistCG(plan *refDofPlan, sys *la.CSR, rhs, gval, x0 []float64, onBnd map[int32]bool, tol float64, maxIter int) (u []float64, iters int, resid float64, converged bool) {
	n := sys.N
	diag := sys.Diag()
	plan.sumSharedSkip(e.Comm, diag, onBnd)
	inv := make([]float64, n)
	for i, v := range diag {
		if v != 0 {
			inv[i] = 1 / v
		} else {
			inv[i] = 1
		}
	}
	u = make([]float64, n)
	copy(u, x0)
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
