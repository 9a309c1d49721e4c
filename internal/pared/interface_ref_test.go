package pared

import (
	"fmt"
	"slices"
	"sort"

	"pared/internal/forest"
	"pared/internal/graph"
	"pared/internal/index"
)

// The interface derivations as they stood before the tree-boundary descent,
// kept verbatim (names prefixed ref) as the oracle: every leaf facet of every
// local leaf hashed into a map, the leftovers all-gathered to every rank.
// checkInterfaceOracle requires the shared set, the weights of G and the dof
// plan the engine derives today to equal what these derive, and the random
// epoch driver (splice_test.go) calls it after every step.

// refGFacet is a facet identified by global vertex IDs (sorted; [2] is the
// sentinel ^0 for 2D edges).
type refGFacet [3]forest.VertexID

// refEachLeafFacet enumerates the facets of all local leaves as global-ID
// facets, with the leaf's root.
func (e *Engine) refEachLeafFacet(fn func(f refGFacet, root int32)) {
	e.F.VisitLeaves(func(id forest.NodeID) {
		n := e.F.Node(id)
		nv := n.Nv()
		for skip := 0; skip < nv; skip++ {
			var f refGFacet
			f[2] = ^forest.VertexID(0)
			idx := 0
			for k := 0; k < nv; k++ {
				if k != skip {
					f[idx] = e.F.VIDs[n.Verts[k]]
					idx++
				}
			}
			refSortGFacet(&f)
			fn(f, n.Root)
		}
	})
}

// refCmpGFacet orders facets lexicographically by global vertex IDs.
func refCmpGFacet(a, b refGFacet) int { return slices.Compare(a[:], b[:]) }

func refLessGFacet(a, b refGFacet) bool { return refCmpGFacet(a, b) < 0 }

// refCmpPair orders coarse-element pairs lexicographically.
func refCmpPair(a, b [2]int32) int { return slices.Compare(a[:], b[:]) }

func refSortGFacet(f *refGFacet) {
	if f[0] > f[1] {
		f[0], f[1] = f[1], f[0]
	}
	if f[1] > f[2] {
		f[1], f[2] = f[2], f[1]
	}
	if f[0] > f[1] {
		f[0], f[1] = f[1], f[0]
	}
}

// refShared is the old rebuildShared: the vertices of the facets of the
// current local leaves that have no local partner.
func (e *Engine) refShared() map[forest.VertexID]bool {
	shared := make(map[forest.VertexID]bool)
	count := make(map[refGFacet]int)
	e.refEachLeafFacet(func(f refGFacet, _ int32) { count[f]++ })
	for f, n := range count {
		if n == 1 {
			shared[f[0]] = true
			shared[f[1]] = true
			if f[2] != ^forest.VertexID(0) {
				shared[f[2]] = true
			}
		}
	}
	return shared
}

// refWeightReport is a rank's old P2 payload: new vertex and edge weights of G
// for the trees (and tree pairs) it is responsible for.
type refWeightReport struct {
	Roots []int32 // owned roots
	VW    []int64 // leaf counts, parallel to Roots
	EdgeR []int32 // edge endpoints (r, s) with counted adjacency
	EdgeS []int32
	EdgeW []int64
}

// refLocalWeights computes this rank's contribution to G's weights: leaf counts
// for owned roots, adjacency counts for locally-visible pairs, and — via one
// all-gather of the boundary facets, matched against lower-ranked peers only —
// adjacency across rank boundaries.
func (e *Engine) refLocalWeights() refWeightReport {
	var rep refWeightReport
	for _, r := range e.F.Roots() {
		rep.Roots = append(rep.Roots, r)
		rep.VW = append(rep.VW, int64(e.F.LeafCount(r)))
	}
	// Facets internal to the shard: count pairs between different local
	// trees; facets seen once are shard-boundary candidates for the exchange.
	first := make(map[refGFacet]int32)
	pair := make(map[[2]int32]int64)
	e.refEachLeafFacet(func(f refGFacet, root int32) {
		if other, ok := first[f]; ok {
			if other != root {
				k := [2]int32{min(other, root), max(other, root)}
				pair[k]++
			}
			delete(first, f)
			return
		}
		first[f] = root
	})
	// What is left in first is the boundary list; it travels as (v0, v1, v2,
	// root) words in sorted facet order, so the payload is byte-identical
	// across runs.
	bkeys := make([]refGFacet, 0, len(first))
	for f := range first {
		bkeys = append(bkeys, f)
	}
	slices.SortFunc(bkeys, refCmpGFacet)
	words := make([]int64, 0, 4*len(bkeys))
	for _, f := range bkeys {
		words = append(words, int64(f[0]), int64(f[1]), int64(f[2]), int64(first[f]))
	}
	// Every rank sees every list, but a mixed pair is counted once: the
	// higher rank matches the lower rank's list and owns the count.
	lists := e.Comm.AllGatherInt64(words)
	for src := 0; src < e.Comm.Rank(); src++ {
		w := lists[src]
		for i := 0; i < len(w); i += 4 {
			f := refGFacet{forest.VertexID(w[i]), forest.VertexID(w[i+1]), forest.VertexID(w[i+2])}
			if r, ok := first[f]; ok {
				s := int32(w[i+3])
				k := [2]int32{min(r, s), max(r, s)}
				pair[k]++
			}
		}
	}
	keys := make([][2]int32, 0, len(pair))
	for k := range pair {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, refCmpPair)
	for _, k := range keys {
		rep.EdgeR = append(rep.EdgeR, k[0])
		rep.EdgeS = append(rep.EdgeS, k[1])
		rep.EdgeW = append(rep.EdgeW, pair[k])
	}
	return rep
}

// refFacetDofPlan is the old buildDofPlan: the sharing pattern and the
// Dirichlet set from one pass over the local leaf facets and three all-gather
// rounds. The facets with no local partner lie on the shard boundary or on
// the domain boundary; only their vertices can be shared.
func (e *Engine) refFacetDofPlan() *dofPlan {
	leaf := e.F.LeafMesh()
	n := leaf.Mesh.NumVerts()
	plan := &dofPlan{
		leaf:      leaf,
		owned:     make([]bool, n),
		dirichlet: make([]bool, n),
	}
	count := make(map[refGFacet]int, 2*e.F.NumLeaves()) // ~1.5 (2D) to 2 (3D) facets per leaf
	e.refEachLeafFacet(func(f refGFacet, _ int32) { count[f]++ })
	var mine []refGFacet
	for f, c := range count {
		if c == 1 {
			mine = append(mine, f)
		}
	}
	sort.Slice(mine, func(i, j int) bool { return refLessGFacet(mine[i], mine[j]) })
	vid2dof := make(map[forest.VertexID]int32, n)
	for i, fv := range leaf.Vert2Local {
		vid2dof[e.F.VIDs[fv]] = int32(i)
	}

	// Candidate shared dofs: the vertices of those facets, one word per
	// vertex ID, exchanged with every rank (p is small).
	ids := make([]forest.VertexID, 0, 3*len(mine))
	for _, f := range mine {
		for _, id := range f {
			if id != ^forest.VertexID(0) {
				ids = append(ids, id)
			}
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	words := make([]int64, len(ids))
	for i, id := range ids {
		words[i] = int64(id)
	}
	me := e.Comm.Rank()
	for i := range plan.owned {
		plan.owned[i] = true
	}
	isShared := make([]bool, n)
	for from, theirs := range e.Comm.AllGatherInt64(words) {
		if from == me {
			continue
		}
		// Both lists ascend: intersect by merging.
		var common []int32
		k := 0
		for _, id := range ids {
			for k < len(theirs) && forest.VertexID(theirs[k]) < id {
				k++
			}
			if k == len(theirs) {
				break
			}
			if forest.VertexID(theirs[k]) != id {
				continue
			}
			dof := vid2dof[id]
			common = append(common, dof)
			if from < me {
				plan.owned[dof] = false
			}
			if !isShared[dof] {
				isShared[dof] = true
				plan.shared = append(plan.shared, dof)
			}
		}
		if len(common) > 0 {
			plan.nbrs = append(plan.nbrs, halo{
				rank: from,
				idx:  common,
				send: [2][]float64{make([]float64, len(common)), make([]float64, len(common))},
			})
		}
	}

	// Domain (not shard) boundary: a facet with no element on the other side
	// anywhere. Shard-boundary facets have a remote partner; true boundary
	// facets do not. Three words per facet on the wire.
	words = make([]int64, 0, 3*len(mine))
	for _, f := range mine {
		words = append(words, int64(f[0]), int64(f[1]), int64(f[2]))
	}
	remote := make([]bool, len(mine))
	for from, ws := range e.Comm.AllGatherInt64(words) {
		if from == me {
			continue
		}
		k := 0
		for i := 0; i < len(ws) && k < len(mine); i += 3 {
			f := refGFacet{forest.VertexID(ws[i]), forest.VertexID(ws[i+1]), forest.VertexID(ws[i+2])}
			for k < len(mine) && refLessGFacet(mine[k], f) {
				k++
			}
			if k < len(mine) && mine[k] == f {
				remote[k] = true
			}
		}
	}
	// Local view: vertices of my true-boundary facets, one word per ID.
	var bndIDs []int64
	for k, f := range mine {
		if remote[k] {
			continue // shard boundary, not domain boundary
		}
		for _, id := range f {
			if id != ^forest.VertexID(0) {
				bndIDs = append(bndIDs, int64(id))
			}
		}
	}
	slices.Sort(bndIDs)
	bndIDs = slices.Compact(bndIDs)
	// Classification must be GLOBAL: a rank can touch a boundary vertex
	// without owning any of its boundary facets (e.g. after migration), so
	// union every rank's view — all sharers must agree on Dirichlet rows.
	for _, theirs := range e.Comm.AllGatherInt64(bndIDs) {
		for _, id := range theirs {
			if dof, ok := vid2dof[forest.VertexID(id)]; ok {
				plan.dirichlet[dof] = true
			}
		}
	}
	for i, d := range plan.dirichlet {
		if d {
			plan.bnd = append(plan.bnd, int32(i))
		}
	}
	return plan
}

// checkInterfaceOracle compares, collectively, the three interface
// derivations against their replaced hash-sweep versions and G against
// graph.CoarseDual of the gathered forest. It returns G as the engine's
// records give it (on every rank) and the gathered forest (rank 0 only); it
// panics on the first difference. The engine is left as it was found.
func checkInterfaceOracle(e *Engine) (*graph.Graph, *forest.Forest) {
	me := e.Comm.Rank()
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("interface oracle, rank %d: %s", me, fmt.Sprintf(format, args...)))
	}

	// shared: rebuildShared forgets the split midpoints accumulated since the
	// last migration, so it refills a fresh index, and the live one is put
	// back afterwards.
	live := e.shared
	e.shared = index.Map{}
	e.rebuildShared()
	got := e.shared
	e.shared = live
	want := e.refShared()
	if got.Len() != len(want) {
		fail("shared has %d vertices, the facet hash %d", got.Len(), len(want))
	}
	for v := range want {
		if _, ok := got.Find(uint64(v)); !ok {
			fail("vertex %x is on an unmatched leaf facet but not in shared", uint64(v))
		}
	}

	// G from the records, on every rank, through the topology-built CSR and the
	// decoder the engine uses. A full write zeroes every vertex and edge weight
	// first, so a weight the records fail to write reads 0 against the
	// references below.
	cores := int32(1)
	if e.cfg.strategy.twoLevel && e.hier != nil {
		cores = int32(e.hier.cores)
	}
	d := e.topo.dual()
	if err := writeRecords(d, e.Owner, cores, e.Comm.AllGatherInt64(e.weightRecords(true)), true); err != nil {
		fail("%v", err)
	}
	g := d.Graph
	// The kept G: a holder's copy, with the records of the trees changed since
	// the last decision written onto a clone of it as the next decision would
	// write them, must be that full write, weights and both cuts. Before the
	// first decision, and after a SetConfig, the next decision writes all of G.
	delta := e.Comm.AllGatherInt64(e.weightRecords(false))
	if k := e.gCache; k != nil && e.gKept && (e.cfg.strategy != &coordinatorStrategy || me == 0) {
		kept := &coarseDual{Graph: &graph.Graph{Xadj: k.Xadj, Adj: k.Adj, VW: slices.Clone(k.VW), EW: slices.Clone(k.EW)},
			slot: k.slot, nv: k.nv, cut: k.cut, inter: k.inter}
		if err := writeRecords(kept, e.Owner, cores, delta, false); err != nil {
			fail("the delta records: %v", err)
		}
		if !slices.Equal(kept.VW, d.VW) || !slices.Equal(kept.EW, d.EW) {
			fail("the kept G plus the delta records differs from a full write")
		}
		if kept.cut != d.cut || kept.inter != d.inter {
			fail("the kept G's cut plus the delta is %d (inter %d), a full write's %d (inter %d)", kept.cut, kept.inter, d.cut, d.inter)
		}
	}
	// G from the old pair counts: every rank's report folded as buildG did.
	rep := e.refLocalWeights()
	words := []int64{int64(len(rep.Roots))}
	for i, r := range rep.Roots {
		words = append(words, int64(r), rep.VW[i])
	}
	for i := range rep.EdgeR {
		words = append(words, int64(rep.EdgeR[i]), int64(rep.EdgeS[i]), rep.EdgeW[i])
	}
	reports := e.Comm.GatherInt64(0, words)
	gathered := e.GatherForest(0)
	if me == 0 {
		b := graph.NewBuilder(e.Coarse.NumElems())
		for _, d := range reports {
			nr := int(d[0])
			d = d[1:]
			for i := 0; i < nr; i++ {
				b.SetVW(int32(d[2*i]), d[2*i+1])
			}
			for d = d[2*nr:]; len(d) > 0; d = d[3:] {
				b.AddEdge(int32(d[0]), int32(d[1]), d[2])
			}
		}
		leaf := gathered.LeafMesh()
		for _, ref := range []struct {
			name string
			g    *graph.Graph
		}{
			{"the pair-count reports", b.Build()},
			{"graph.CoarseDual", graph.CoarseDual(e.Coarse.NumElems(), leaf.Mesh, leaf.LeafRoot)},
		} {
			if !slices.Equal(g.Xadj, ref.g.Xadj) || !slices.Equal(g.Adj, ref.g.Adj) {
				fail("G's topology differs from %s", ref.name)
			}
			for v := range g.VW {
				if g.VW[v] != ref.g.VW[v] {
					fail("G.VW[%d] = %d, %s have %d", v, g.VW[v], ref.name, ref.g.VW[v])
				}
			}
			for v := 0; v < g.N(); v++ {
				for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
					if g.EW[k] != ref.g.EW[k] {
						fail("G's edge %d -> %d weighs %d, %s have %d", v, g.Adj[k], g.EW[k], ref.name, ref.g.EW[k])
					}
				}
			}
		}
	}

	// The dof plan.
	plan, ref := e.buildDofPlan(), e.refFacetDofPlan()
	if !slices.Equal(plan.owned, ref.owned) {
		fail("dofPlan.owned differs from the facet-hash plan")
	}
	if !slices.Equal(plan.dirichlet, ref.dirichlet) || !slices.Equal(plan.bnd, ref.bnd) {
		fail("dofPlan.dirichlet/bnd differ from the facet-hash plan: bnd %v vs %v", plan.bnd, ref.bnd)
	}
	if len(plan.nbrs) != len(ref.nbrs) {
		fail("dofPlan has %d neighbours, the facet-hash plan %d", len(plan.nbrs), len(ref.nbrs))
	}
	for k := range ref.nbrs {
		if plan.nbrs[k].rank != ref.nbrs[k].rank || !slices.Equal(plan.nbrs[k].idx, ref.nbrs[k].idx) {
			fail("halo %d: rank %d idx %v, the facet-hash plan has rank %d idx %v",
				k, plan.nbrs[k].rank, plan.nbrs[k].idx, ref.nbrs[k].rank, ref.nbrs[k].idx)
		}
	}
	return g, gathered
}
