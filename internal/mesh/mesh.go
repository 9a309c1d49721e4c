// Package mesh implements the flat simplicial meshes on which PARED's
// numerical and partitioning machinery operates: triangle meshes in 2D and
// tetrahedral meshes in 3D.
//
// A Mesh is a snapshot — typically the leaf mesh Mᵗ extracted from a
// refinement forest (see internal/forest) — with contiguous vertex and
// element indices. It offers the combinatorial queries the paper relies on:
// facet adjacency, the element dual graph, boundary extraction, the
// shared-vertex partition-quality metric, and conformity validation.
package mesh

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pared/internal/geom"
	"pared/internal/kern"
)

// Dim is the topological dimension of a mesh: 2 (triangles) or 3 (tetrahedra).
type Dim int

const (
	// D2 labels planar triangle meshes.
	D2 Dim = 2
	// D3 labels tetrahedral meshes.
	D3 Dim = 3
)

// Element is a simplex given by vertex indices. Triangles use V[0..2] and set
// V[3] = -1; tetrahedra use all four entries.
type Element struct {
	V [4]int32
}

// Tri builds a triangle element.
func Tri(a, b, c int32) Element { return Element{V: [4]int32{a, b, c, -1}} }

// Tet builds a tetrahedron element.
func Tet(a, b, c, d int32) Element { return Element{V: [4]int32{a, b, c, d}} }

// Nv returns the number of vertices of the element (3 or 4).
func (e Element) Nv() int {
	if e.V[3] < 0 {
		return 3
	}
	return 4
}

// Mesh is a conforming simplicial mesh.
type Mesh struct {
	// Dim is 2 for triangle meshes, 3 for tetrahedral meshes.
	Dim Dim
	// Verts holds vertex coordinates.
	Verts []geom.Vec3
	// Elems holds the simplices.
	Elems []Element
}

// NumVerts returns the number of vertices.
func (m *Mesh) NumVerts() int { return len(m.Verts) }

// NumElems returns the number of elements.
func (m *Mesh) NumElems() int { return len(m.Elems) }

// FacetsPerElem returns the number of facets of each element:
// 3 edges per triangle, 4 faces per tetrahedron.
func (m *Mesh) FacetsPerElem() int { return int(m.Dim) + 1 }

// FacetKey identifies a facet (edge in 2D, triangular face in 3D) by its
// sorted vertex indices. In 2D the third entry is -1.
type FacetKey [3]int32

// Facet returns the k-th facet of element e as a sorted key. Facet k is the
// facet opposite vertex k of the simplex.
func (m *Mesh) Facet(e int, k int) FacetKey {
	el := m.Elems[e]
	var f FacetKey
	if m.Dim == D2 {
		f = FacetKey{el.V[(k+1)%3], el.V[(k+2)%3], -1}
		if f[0] > f[1] {
			f[0], f[1] = f[1], f[0]
		}
		return f
	}
	idx := 0
	for i := 0; i < 4; i++ {
		if i != k {
			f[idx] = el.V[i]
			idx++
		}
	}
	sort3(&f)
	return f
}

func sort3(f *FacetKey) {
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

// EdgeKey identifies an edge by its sorted endpoint indices.
type EdgeKey struct {
	A, B int32
}

// MakeEdgeKey returns the canonical key for the edge {a, b}.
func MakeEdgeKey(a, b int32) EdgeKey {
	if a > b {
		a, b = b, a
	}
	return EdgeKey{a, b}
}

// EdgesPerElem returns the number of edges per element (3 or 6).
func (m *Mesh) EdgesPerElem() int {
	if m.Dim == D2 {
		return 3
	}
	return 6
}

// tetEdges enumerates the 6 edges of a tetrahedron by local vertex pairs.
var tetEdges = [6][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}

// triEdges enumerates the 3 edges of a triangle by local vertex pairs.
var triEdges = [3][2]int{{0, 1}, {1, 2}, {2, 0}}

// Edge returns the k-th edge of element e.
func (m *Mesh) Edge(e, k int) EdgeKey {
	el := m.Elems[e]
	if m.Dim == D2 {
		return MakeEdgeKey(el.V[triEdges[k][0]], el.V[triEdges[k][1]])
	}
	return MakeEdgeKey(el.V[tetEdges[k][0]], el.V[tetEdges[k][1]])
}

// FacetMap maps every facet to the (at most two) elements containing it.
// A facet contained in one element is a boundary facet; its second slot is -1.
func (m *Mesh) FacetMap() map[FacetKey][2]int32 {
	fm := make(map[FacetKey][2]int32, m.NumElems()*2)
	nf := m.FacetsPerElem()
	for e := range m.Elems {
		for k := 0; k < nf; k++ {
			key := m.Facet(e, k)
			pair, ok := fm[key]
			if !ok {
				fm[key] = [2]int32{int32(e), -1}
			} else if pair[1] < 0 {
				pair[1] = int32(e)
				fm[key] = pair
			} else {
				// More than two elements share a facet: non-manifold input.
				panic(fmt.Sprintf("mesh: facet %v shared by more than two elements", key))
			}
		}
	}
	return fm
}

// facetRec pairs one facet occurrence with the element it belongs to.
type facetRec struct {
	key  FacetKey
	elem int32
}

// facetGrain is the element-chunk size for parallel facet-record generation.
const facetGrain = 512

// facetRecords returns every (facet, element) incidence, sorted by facet key
// then element. Record generation is element-parallel (element e owns slots
// [e·nf, (e+1)·nf)); the sort groups each facet's incidences into a run of
// length 1 (boundary) or 2 (interior). This replaces the former map-based
// FacetMap on the hot paths: the output order is canonical, so consumers
// iterate deterministically without maporder suppressions.
func (m *Mesh) facetRecords() []facetRec {
	nf := m.FacetsPerElem()
	recs := make([]facetRec, m.NumElems()*nf)
	kern.For(m.NumElems(), facetGrain, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			for k := 0; k < nf; k++ {
				recs[e*nf+k] = facetRec{key: m.Facet(e, k), elem: int32(e)}
			}
		}
	})
	slices.SortFunc(recs, func(a, b facetRec) int {
		if c := cmp.Compare(a.key[0], b.key[0]); c != 0 {
			return c
		}
		if c := cmp.Compare(a.key[1], b.key[1]); c != 0 {
			return c
		}
		if c := cmp.Compare(a.key[2], b.key[2]); c != 0 {
			return c
		}
		return cmp.Compare(a.elem, b.elem)
	})
	return recs
}

// InteriorFacetPairs returns the element pairs sharing a facet, each as
// (smaller element, larger element), sorted by facet key. It panics on
// non-manifold input (a facet in more than two elements), like FacetMap.
func (m *Mesh) InteriorFacetPairs() [][2]int32 {
	recs := m.facetRecords()
	pairs := make([][2]int32, 0, len(recs)/2)
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].key == recs[i].key {
			j++
		}
		switch j - i {
		case 1: // boundary facet
		case 2:
			pairs = append(pairs, [2]int32{recs[i].elem, recs[i+1].elem})
		default:
			panic(fmt.Sprintf("mesh: facet %v shared by more than two elements", recs[i].key))
		}
		i = j
	}
	return pairs
}

// DualAdjacency returns, for each element, the indices of the elements that
// share a facet with it (at most Dim+1 neighbors each). All neighbor lists
// share one flat backing array (degree counting + scatter, like a CSR build),
// so the whole structure costs a handful of allocations; rows are sorted
// ascending with per-row insertion sorts in parallel chunks.
func (m *Mesh) DualAdjacency() [][]int32 {
	n := m.NumElems()
	pairs := m.InteriorFacetPairs()
	off := make([]int32, n+1)
	for _, p := range pairs {
		off[p[0]+1]++
		off[p[1]+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	flat := make([]int32, off[n])
	pos := make([]int32, n)
	copy(pos, off[:n])
	for _, p := range pairs {
		flat[pos[p[0]]] = p[1]
		pos[p[0]]++
		flat[pos[p[1]]] = p[0]
		pos[p[1]]++
	}
	adj := make([][]int32, n)
	kern.For(n, facetGrain, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			row := flat[off[e]:off[e+1]:off[e+1]]
			for i := 1; i < len(row); i++ {
				u := row[i]
				j := i
				for j > 0 && row[j-1] > u {
					row[j] = row[j-1]
					j--
				}
				row[j] = u
			}
			adj[e] = row
		}
	})
	return adj
}

// BoundaryFacets returns the facets contained in exactly one element,
// together with that element's index.
func (m *Mesh) BoundaryFacets() map[FacetKey]int32 {
	out := make(map[FacetKey]int32)
	recs := m.facetRecords()
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].key == recs[i].key {
			j++
		}
		if j-i == 1 {
			out[recs[i].key] = recs[i].elem
		}
		i = j
	}
	return out
}

// BoundaryVertexSet returns the set of vertices on the mesh boundary.
func (m *Mesh) BoundaryVertexSet() map[int32]bool {
	out := make(map[int32]bool)
	for key := range m.BoundaryFacets() {
		out[key[0]] = true
		out[key[1]] = true
		if key[2] >= 0 {
			out[key[2]] = true
		}
	}
	return out
}

// SharedVertices counts the mesh vertices adjacent to elements assigned to
// two or more different parts. This is the partition-quality metric the paper
// reports in Figures 3 and 7 ("number of shared vertices").
func (m *Mesh) SharedVertices(parts []int32) int {
	if len(parts) != m.NumElems() {
		panic("mesh: parts length mismatch")
	}
	// first[v] is the part of the first element incident to v (-1 if none);
	// shared[v] marks a second distinct part. One scan: a chunked fold merged
	// to the same count and did not pay for its merge on two cores
	// (DESIGN.md §8).
	first := make([]int32, m.NumVerts())
	for i := range first {
		first[i] = -1
	}
	shared := make([]bool, m.NumVerts())
	for e, el := range m.Elems {
		p := parts[e]
		for _, v := range el.V[:el.Nv()] {
			switch {
			case first[v] < 0:
				first[v] = p
			case first[v] != p:
				shared[v] = true
			}
		}
	}
	count := 0
	for _, s := range shared {
		if s {
			count++
		}
	}
	return count
}

// ElemVolume returns the area (2D) or volume (3D) of element e.
func (m *Mesh) ElemVolume(e int) float64 {
	el := m.Elems[e]
	if m.Dim == D2 {
		return geom.TriangleArea(m.Verts[el.V[0]], m.Verts[el.V[1]], m.Verts[el.V[2]])
	}
	return geom.TetVolume(m.Verts[el.V[0]], m.Verts[el.V[1]], m.Verts[el.V[2]], m.Verts[el.V[3]])
}

// TotalVolume returns the sum of all element volumes.
func (m *Mesh) TotalVolume() float64 {
	sum := 0.0
	for e := range m.Elems {
		sum += m.ElemVolume(e)
	}
	return sum
}

// Centroid returns the barycenter of element e.
func (m *Mesh) Centroid(e int) geom.Vec3 {
	el := m.Elems[e]
	nv := el.Nv()
	var c geom.Vec3
	for i := 0; i < nv; i++ {
		c = c.Add(m.Verts[el.V[i]])
	}
	return c.Scale(1 / float64(nv))
}

// Bounds returns the bounding box of all vertices.
func (m *Mesh) Bounds() geom.AABB {
	b := geom.EmptyAABB()
	for _, v := range m.Verts {
		b.Extend(v)
	}
	return b
}

// LongestEdge returns the index (within Edge enumeration) and squared length
// of the longest edge of element e. Ties are broken toward the smaller
// (sorted) vertex-index pair so the choice is deterministic.
func (m *Mesh) LongestEdge(e int) (k int, len2 float64) {
	ne := m.EdgesPerElem()
	best := -1
	bestLen := -1.0
	var bestKey EdgeKey
	for i := 0; i < ne; i++ {
		key := m.Edge(e, i)
		l := m.Verts[key.A].Dist2(m.Verts[key.B])
		// ">= && less" realizes the equal-length tie-break without a float ==:
		// the > clause has already failed when it is evaluated.
		if l > bestLen || (l >= bestLen && edgeKeyLess(key, bestKey)) {
			best, bestLen, bestKey = i, l, key
		}
	}
	return best, bestLen
}

func edgeKeyLess(a, b EdgeKey) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// Validate checks structural sanity: vertex indices in range, no repeated
// vertices within an element, consistent element arity, and manifold facet
// sharing. It returns a descriptive error for the first violation found.
func (m *Mesh) Validate() error {
	if m.Dim != D2 && m.Dim != D3 {
		return fmt.Errorf("mesh: invalid dimension %d", m.Dim)
	}
	n := int32(m.NumVerts())
	for e, el := range m.Elems {
		nv := el.Nv()
		if (m.Dim == D2 && nv != 3) || (m.Dim == D3 && nv != 4) {
			return fmt.Errorf("mesh: element %d has %d vertices in a %dD mesh", e, nv, m.Dim)
		}
		for i := 0; i < nv; i++ {
			if el.V[i] < 0 || el.V[i] >= n {
				return fmt.Errorf("mesh: element %d vertex %d out of range", e, el.V[i])
			}
			for j := i + 1; j < nv; j++ {
				if el.V[i] == el.V[j] {
					return fmt.Errorf("mesh: element %d has repeated vertex %d", e, el.V[i])
				}
			}
		}
		if m.ElemVolume(e) <= 0 {
			return fmt.Errorf("mesh: element %d is degenerate", e)
		}
	}
	// InteriorFacetPairs panics on facets shared more than twice; convert to
	// error.
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		m.InteriorFacetPairs()
		return nil
	}()
	return err
}

// CheckConforming reports hanging nodes: edges of the mesh whose exact
// midpoint coordinate is itself a mesh vertex that is not an endpoint of the
// edge, while the edge is still present unrefined. Midpoints created by
// bisection are computed with the identical floating-point expression, so
// exact coordinate matching is reliable here.
func (m *Mesh) CheckConforming() error {
	coord := make(map[geom.Vec3]int32, m.NumVerts())
	for i, v := range m.Verts {
		coord[v] = int32(i)
	}
	seen := make(map[EdgeKey]bool)
	ne := m.EdgesPerElem()
	for e := range m.Elems {
		for k := 0; k < ne; k++ {
			key := m.Edge(e, k)
			if seen[key] {
				continue
			}
			seen[key] = true
			mid := m.Verts[key.A].Mid(m.Verts[key.B])
			if v, ok := coord[mid]; ok && v != key.A && v != key.B {
				return fmt.Errorf("mesh: hanging node %d at midpoint of edge (%d,%d) in element %d", v, key.A, key.B, e)
			}
		}
	}
	return nil
}

// QualityStats summarizes element shape quality.
type QualityStats struct {
	MinVolume, MaxVolume float64
	MinAspect, MaxAspect float64 // shortest/longest edge ratio per element
	MeanAspect           float64
}

// Quality computes shape-quality statistics over all elements.
func (m *Mesh) Quality() QualityStats {
	q := QualityStats{
		MinVolume: math.Inf(1), MaxVolume: math.Inf(-1),
		MinAspect: math.Inf(1), MaxAspect: math.Inf(-1),
	}
	if m.NumElems() == 0 {
		return QualityStats{}
	}
	ne := m.EdgesPerElem()
	sum := 0.0
	for e := range m.Elems {
		v := m.ElemVolume(e)
		q.MinVolume = math.Min(q.MinVolume, v)
		q.MaxVolume = math.Max(q.MaxVolume, v)
		lo, hi := math.Inf(1), 0.0
		for k := 0; k < ne; k++ {
			key := m.Edge(e, k)
			l := m.Verts[key.A].Dist(m.Verts[key.B])
			lo = math.Min(lo, l)
			hi = math.Max(hi, l)
		}
		a := lo / hi
		q.MinAspect = math.Min(q.MinAspect, a)
		q.MaxAspect = math.Max(q.MaxAspect, a)
		sum += a
	}
	q.MeanAspect = sum / float64(m.NumElems())
	return q
}

// Contains reports whether point p lies in element e (closed, with a small
// relative tolerance), via barycentric sign tests.
func (m *Mesh) Contains(e int, p geom.Vec3) bool {
	el := m.Elems[e]
	const tol = 1e-9
	if m.Dim == D2 {
		a, b, c := m.Verts[el.V[0]], m.Verts[el.V[1]], m.Verts[el.V[2]]
		total := geom.TriangleAreaSigned(a, b, c)
		//paredlint:allow floateq -- degenerate-element guard before barycentric division
		if total == 0 {
			return false
		}
		s0 := geom.TriangleAreaSigned(p, b, c) / total
		s1 := geom.TriangleAreaSigned(a, p, c) / total
		s2 := geom.TriangleAreaSigned(a, b, p) / total
		return s0 >= -tol && s1 >= -tol && s2 >= -tol
	}
	a, b, c, d := m.Verts[el.V[0]], m.Verts[el.V[1]], m.Verts[el.V[2]], m.Verts[el.V[3]]
	total := geom.TetVolumeSigned(a, b, c, d)
	//paredlint:allow floateq -- degenerate-element guard before barycentric division
	if total == 0 {
		return false
	}
	s0 := geom.TetVolumeSigned(p, b, c, d) / total
	s1 := geom.TetVolumeSigned(a, p, c, d) / total
	s2 := geom.TetVolumeSigned(a, b, p, d) / total
	s3 := geom.TetVolumeSigned(a, b, c, p) / total
	return s0 >= -tol && s1 >= -tol && s2 >= -tol && s3 >= -tol
}

// Clone returns a deep copy of the mesh.
func (m *Mesh) Clone() *Mesh {
	c := &Mesh{Dim: m.Dim}
	c.Verts = append([]geom.Vec3(nil), m.Verts...)
	c.Elems = append([]Element(nil), m.Elems...)
	return c
}
