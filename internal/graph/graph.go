// Package graph provides the weighted undirected graphs at the center of the
// repartitioning problem: the dual graph of a mesh, the weighted coarse dual
// graph G of M⁰ that PNR partitions, multilevel support (heavy-edge matching
// and contraction), and the processor-connectivity graph Hᵗ of §8.
//
// Graphs are stored in CSR form with int64 vertex and edge weights (fine-
// element counts can reach 10⁵ and balance costs square them).
package graph

import (
	"cmp"
	"fmt"
	"slices"

	"pared/internal/la"
	"pared/internal/mesh"
)

// Graph is a weighted undirected graph in CSR form. Every edge appears in
// both endpoints' adjacency lists.
type Graph struct {
	Xadj []int32 // offsets, length n+1
	Adj  []int32 // neighbor vertices
	EW   []int64 // edge weights, parallel to Adj
	VW   []int64 // vertex weights, length n
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.VW) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.Adj) / 2 }

// TotalVW returns the sum of vertex weights.
func (g *Graph) TotalVW() int64 {
	var s int64
	for _, w := range g.VW {
		s += w
	}
	return s
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int32) int { return int(g.Xadj[v+1] - g.Xadj[v]) }

// Neighbors calls fn(u, w) for every neighbor u of v with edge weight w.
func (g *Graph) Neighbors(v int32, fn func(u int32, w int64)) {
	for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
		fn(g.Adj[k], g.EW[k])
	}
}

// Validate checks CSR structural invariants and symmetry.
func (g *Graph) Validate() error {
	n := g.N()
	if len(g.Xadj) != n+1 || len(g.Adj) != len(g.EW) {
		return fmt.Errorf("graph: inconsistent CSR arrays")
	}
	if int(g.Xadj[n]) != len(g.Adj) {
		return fmt.Errorf("graph: Xadj[n]=%d != len(Adj)=%d", g.Xadj[n], len(g.Adj))
	}
	// Sum each half-edge (v, u) over repeated listings, then look every
	// merged half's partner up in the sorted list: it must be there, whatever
	// the half's weight, and weigh the same.
	type half struct {
		v, u int32
		w    int64
	}
	byEnds := func(a, b half) int { return cmp.Or(cmp.Compare(a.v, b.v), cmp.Compare(a.u, b.u)) }
	hs := make([]half, 0, len(g.Adj))
	for v := int32(0); v < int32(n); v++ {
		for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
			u := g.Adj[k]
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: neighbor %d out of range", u)
			}
			if u == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			hs = append(hs, half{v, u, g.EW[k]})
		}
	}
	slices.SortFunc(hs, byEnds)
	merged := hs[:0]
	for _, h := range hs {
		if last := len(merged) - 1; last >= 0 && byEnds(merged[last], h) == 0 {
			merged[last].w += h.w
		} else {
			merged = append(merged, h)
		}
	}
	for _, h := range merged {
		i, ok := slices.BinarySearchFunc(merged, half{v: h.u, u: h.v}, byEnds)
		if !ok {
			return fmt.Errorf("graph: one-sided edge (%d,%d)", h.v, h.u)
		}
		if merged[i].w != h.w {
			return fmt.Errorf("graph: asymmetric edge (%d,%d)", h.v, h.u)
		}
	}
	return nil
}

// Builder accumulates edges (summing duplicates) and vertex weights.
type Builder struct {
	n  int
	vw []int64
	ew []keyW // one entry per AddEdge; Build sorts and merges them
}

// keyW is one AddEdge call: the edge's ekey and the weight it adds.
type keyW struct {
	k uint64
	w int64
}

// NewBuilder creates a builder for n vertices, all with weight 1.
func NewBuilder(n int) *Builder {
	b := &Builder{n: n, vw: make([]int64, n)}
	for i := range b.vw {
		b.vw[i] = 1
	}
	return b
}

func ekey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// AddEdge accumulates weight w on the undirected edge {u, v}.
// Self-loops are ignored.
func (b *Builder) AddEdge(u, v int32, w int64) {
	if u == v {
		return
	}
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d) out of range n=%d", u, v, b.n))
	}
	b.ew = append(b.ew, keyW{ekey(u, v), w})
}

// SetVW sets the weight of vertex v.
func (b *Builder) SetVW(v int32, w int64) { b.vw[v] = w }

// Build assembles the CSR graph.
func (b *Builder) Build() *Graph {
	g := &Graph{Xadj: make([]int32, b.n+1), VW: b.vw}
	deg := make([]int32, b.n)
	slices.SortFunc(b.ew, func(x, y keyW) int { return cmp.Compare(x.k, y.k) })
	edges := b.ew[:0] // distinct keys, duplicates summed
	for _, e := range b.ew {
		if last := len(edges) - 1; last >= 0 && edges[last].k == e.k {
			edges[last].w += e.w
		} else {
			edges = append(edges, e)
		}
	}
	b.ew = edges
	for _, e := range edges {
		u, v := int32(e.k>>32), int32(uint32(e.k))
		deg[u]++
		deg[v]++
	}
	for i := 0; i < b.n; i++ {
		g.Xadj[i+1] = g.Xadj[i] + deg[i]
	}
	g.Adj = make([]int32, g.Xadj[b.n])
	g.EW = make([]int64, g.Xadj[b.n])
	pos := make([]int32, b.n)
	copy(pos, g.Xadj[:b.n])
	for _, e := range edges {
		u, v, w := int32(e.k>>32), int32(uint32(e.k)), e.w
		g.Adj[pos[u]], g.EW[pos[u]] = v, w
		pos[u]++
		g.Adj[pos[v]], g.EW[pos[v]] = u, w
		pos[v]++
	}
	return g
}

// FromDual builds the unit-weight dual graph of a mesh: one vertex per
// element, edges between facet-sharing elements. This is the fine graph the
// standard partitioners (RSB, Multilevel-KL) operate on in the paper's
// comparisons.
//
// The construction is map-free: mesh.InteriorFacetPairs already yields each
// adjacent element pair exactly once (two simplices share at most one facet
// in a conforming mesh), so the CSR is assembled by degree counting and a
// scatter pass, then each row is sorted ascending — the same layout the
// historical Builder path produced.
func FromDual(m *mesh.Mesh) *Graph {
	n := m.NumElems()
	pairs := m.InteriorFacetPairs()
	g := &Graph{Xadj: make([]int32, n+1), VW: make([]int64, n)}
	deg := make([]int32, n)
	for _, p := range pairs {
		deg[p[0]]++
		deg[p[1]]++
	}
	for i := 0; i < n; i++ {
		g.VW[i] = 1
		g.Xadj[i+1] = g.Xadj[i] + deg[i]
	}
	nnz := int(g.Xadj[n])
	g.Adj = make([]int32, nnz)
	g.EW = make([]int64, nnz)
	pos := deg // reuse: becomes the write cursor per vertex
	copy(pos, g.Xadj[:n])
	for _, p := range pairs {
		g.Adj[pos[p[0]]] = p[1]
		pos[p[0]]++
		g.Adj[pos[p[1]]] = p[0]
		pos[p[1]]++
	}
	for i := range g.EW {
		g.EW[i] = 1
	}
	// Ascending adjacency per vertex (dual degrees are at most the facet
	// count of one element, so insertion sort wins).
	for v := 0; v < n; v++ {
		row := g.Adj[g.Xadj[v]:g.Xadj[v+1]]
		for i := 1; i < len(row); i++ {
			u := row[i]
			j := i
			for j > 0 && row[j-1] > u {
				row[j] = row[j-1]
				j--
			}
			row[j] = u
		}
	}
	return g
}

// CoarseDual builds the weighted dual graph G of the coarse mesh M⁰ from the
// current leaf mesh, exactly as §5 defines it: the weight of coarse vertex a
// is the number of leaves of tree τ_a, and the weight of edge (a,b) is the
// number of adjacent leaf pairs between τ_a and τ_b.
//
// numRoots is the number of coarse elements; leafRoot[e] gives the coarse
// ancestor of leaf element e of leafMesh.
func CoarseDual(numRoots int, leafMesh *mesh.Mesh, leafRoot []int32) *Graph {
	b := NewBuilder(numRoots)
	counts := make([]int64, numRoots)
	for _, r := range leafRoot {
		counts[r]++
	}
	for i, c := range counts {
		if c == 0 {
			c = 1 // a never-refined, never-seen root still has one element
		}
		b.SetVW(int32(i), c)
	}
	for _, pair := range leafMesh.InteriorFacetPairs() {
		r1, r2 := leafRoot[pair[0]], leafRoot[pair[1]]
		if r1 != r2 {
			b.AddEdge(r1, r2, 1)
		}
	}
	return b.Build()
}

// BFS returns hop distances from src (-1 where unreachable).
func (g *Graph) BFS(src int32) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.Neighbors(v, func(u int32, _ int64) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		})
	}
	return dist
}

// PseudoPeripheral returns a vertex approximately maximizing eccentricity,
// found by repeated BFS from the farthest vertex (used to seed graph-growing
// bisection).
func (g *Graph) PseudoPeripheral(start int32) int32 {
	v := start
	last := int32(-1)
	for iter := 0; iter < 8; iter++ {
		dist := g.BFS(v)
		far, fd := v, int32(-1)
		for i, d := range dist {
			if d > fd {
				far, fd = int32(i), d
			}
		}
		if far == last || far == v {
			return far
		}
		last = v
		v = far
	}
	return v
}

// Laplacian returns the weighted graph Laplacian L = D − A as a CSR matrix.
func (g *Graph) Laplacian() *la.CSR {
	b := la.NewBuilder(g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		g.Neighbors(v, func(u int32, w int64) {
			b.Add(int(v), int(u), -float64(w))
			b.Add(int(v), int(v), float64(w))
		})
	}
	return b.Build()
}

// Subgraph extracts the induced subgraph on the given vertices (which must be
// distinct). It returns the subgraph and the original index of each subgraph
// vertex.
func (g *Graph) Subgraph(verts []int32) (*Graph, []int32) {
	inv := make([]int32, g.N()) // inv[v] is v's subgraph index, or -1
	for i := range inv {
		inv[i] = -1
	}
	for i, v := range verts {
		inv[v] = int32(i)
	}
	b := NewBuilder(len(verts))
	for i, v := range verts {
		b.SetVW(int32(i), g.VW[v])
		g.Neighbors(v, func(u int32, w int64) {
			if j := inv[u]; j > int32(i) {
				b.AddEdge(int32(i), j, w)
			}
		})
	}
	return b.Build(), append([]int32(nil), verts...)
}
