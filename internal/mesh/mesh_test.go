package mesh

import (
	"slices"
	"strings"
	"testing"

	"pared/internal/geom"
)

// twoTri builds the unit square split along the diagonal (0,0)-(1,1).
func twoTri() *Mesh {
	return &Mesh{
		Dim: D2,
		Verts: []geom.Vec3{
			{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1},
		},
		Elems: []Element{Tri(0, 1, 2), Tri(0, 2, 3)},
	}
}

// twoTet builds two tetrahedra sharing a triangular face.
func twoTet() *Mesh {
	return &Mesh{
		Dim: D3,
		Verts: []geom.Vec3{
			{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0},
			{X: 0, Y: 0, Z: 1}, {X: 1, Y: 1, Z: 1},
		},
		Elems: []Element{Tet(0, 1, 2, 3), Tet(1, 2, 3, 4)},
	}
}

func TestElementArity(t *testing.T) {
	if Tri(0, 1, 2).Nv() != 3 {
		t.Error("triangle arity")
	}
	if Tet(0, 1, 2, 3).Nv() != 4 {
		t.Error("tet arity")
	}
}

func TestFacetSharing2D(t *testing.T) {
	m := twoTri()
	fm := m.FacetMap()
	if len(fm) != 5 {
		t.Fatalf("facets = %d, want 5", len(fm))
	}
	shared := FacetKey{0, 2, -1}
	pair, ok := fm[shared]
	if !ok || pair[1] < 0 {
		t.Fatalf("diagonal should be shared, got %v ok=%v", pair, ok)
	}
}

func TestFacetSharing3D(t *testing.T) {
	m := twoTet()
	fm := m.FacetMap()
	if len(fm) != 7 {
		t.Fatalf("facets = %d, want 7", len(fm))
	}
	pair, ok := fm[FacetKey{1, 2, 3}]
	if !ok || pair[1] < 0 {
		t.Fatalf("face {1,2,3} should be shared, got %v ok=%v", pair, ok)
	}
}

func TestDualAdjacency(t *testing.T) {
	if pairs := twoTri().InteriorFacetPairs(); len(pairs) != 1 || pairs[0] != [2]int32{0, 1} {
		t.Errorf("2D interior facet pairs = %v", pairs)
	}
	if pairs := twoTet().InteriorFacetPairs(); len(pairs) != 1 || pairs[0] != [2]int32{0, 1} {
		t.Errorf("3D interior facet pairs = %v", pairs)
	}
}

func TestBoundary(t *testing.T) {
	m := twoTri()
	m.Verts = append(m.Verts, geom.Vec3{X: 2, Y: 2}) // in no element
	bv := m.BoundaryVertexSet()
	want := []bool{true, true, true, true, false}
	if !slices.Equal(bv, want) {
		t.Errorf("boundary vertices = %v, want %v", bv, want)
	}
	// Every vertex of a fan of four triangles around vertex 0 is on the
	// boundary but the hub.
	fan := &Mesh{
		Dim: D2,
		Verts: []geom.Vec3{
			{}, {X: 1}, {Y: 1}, {X: -1}, {Y: -1},
		},
		Elems: []Element{Tri(0, 1, 2), Tri(0, 2, 3), Tri(0, 3, 4), Tri(0, 4, 1)},
	}
	if bv := fan.BoundaryVertexSet(); !slices.Equal(bv, []bool{false, true, true, true, true}) {
		t.Errorf("fan boundary vertices = %v", bv)
	}
}

// TestNonManifoldFacet: three triangles on one edge are an error from
// Validate and a panic from InteriorFacetPairs.
func TestNonManifoldFacet(t *testing.T) {
	m := twoTri()
	m.Verts = append(m.Verts, geom.Vec3{X: 2, Y: 0})
	m.Elems = append(m.Elems, Tri(0, 4, 2))
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "more than two") {
		t.Errorf("Validate: err = %v, want a non-manifold error", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("InteriorFacetPairs accepted a facet in three elements")
		}
	}()
	m.InteriorFacetPairs()
}

func TestSharedVertices(t *testing.T) {
	m := twoTri()
	if got := m.SharedVertices([]int32{0, 0}); got != 0 {
		t.Errorf("same part: shared = %d, want 0", got)
	}
	// Split parts: the diagonal's two vertices are shared.
	if got := m.SharedVertices([]int32{0, 1}); got != 2 {
		t.Errorf("split: shared = %d, want 2", got)
	}
}

func TestVolumes(t *testing.T) {
	m := twoTri()
	if v := m.TotalVolume(); v < 0.999 || v > 1.001 {
		t.Errorf("total area = %v, want 1", v)
	}
	m3 := twoTet()
	if v := m3.ElemVolume(0); v <= 0 {
		t.Errorf("tet volume = %v, want > 0", v)
	}
}

func TestValidate(t *testing.T) {
	if err := twoTri().Validate(); err != nil {
		t.Errorf("valid mesh rejected: %v", err)
	}
	if err := twoTet().Validate(); err != nil {
		t.Errorf("valid 3D mesh rejected: %v", err)
	}
	bad := twoTri()
	bad.Elems[0].V[1] = 99
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range vertex not detected")
	}
	dup := twoTri()
	dup.Elems[0].V[1] = dup.Elems[0].V[0]
	if err := dup.Validate(); err == nil {
		t.Error("repeated vertex not detected")
	}
}

func TestCheckConformingDetectsHangingNode(t *testing.T) {
	// A vertex exactly at the midpoint of an unrefined edge is a hanging node.
	m := twoTri()
	m.Verts = append(m.Verts, geom.Vec3{X: 0.5, Y: 0.5})
	if err := m.CheckConforming(); err == nil {
		t.Error("hanging node not detected")
	}
	if err := twoTri().CheckConforming(); err != nil {
		t.Errorf("conforming mesh rejected: %v", err)
	}
}

func TestLongestEdgeDeterministic(t *testing.T) {
	m := twoTri()
	k1, l1 := m.LongestEdge(0)
	k2, l2 := m.LongestEdge(0)
	if k1 != k2 || l1 != l2 {
		t.Error("LongestEdge not deterministic")
	}
	key := m.Edge(0, k1)
	// Diagonal (0,2) has length sqrt(2), the longest in triangle (0,1,2).
	if key != MakeEdgeKey(0, 2) {
		t.Errorf("longest edge = %v, want (0,2)", key)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := twoTri()
	c := m.Clone()
	c.Elems[0].V[0] = 3
	c.Verts[0].X = 42
	if m.Elems[0].V[0] == 3 || m.Verts[0].X == 42 {
		t.Error("Clone shares storage with original")
	}
}

func TestWriteSVG(t *testing.T) {
	var sb strings.Builder
	if err := twoTri().WriteSVG(&sb, []int32{0, 1}, 100); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "<svg") || !strings.Contains(out, "polygon") {
		t.Error("SVG output missing expected markup")
	}
}

func TestQuality(t *testing.T) {
	q := twoTri().Quality()
	if q.MinAspect <= 0 || q.MaxAspect > 1 || q.MeanAspect <= 0 {
		t.Errorf("quality stats out of range: %+v", q)
	}
	if q.MinVolume <= 0 {
		t.Errorf("MinVolume = %v", q.MinVolume)
	}
}

func TestCentroid(t *testing.T) {
	m := twoTri()
	c := m.Centroid(0) // triangle (0,0),(1,0),(1,1)
	if c.Dist(geom.Vec3{X: 2.0 / 3, Y: 1.0 / 3}) > 1e-12 {
		t.Errorf("centroid = %v", c)
	}
}

func TestContains(t *testing.T) {
	m := twoTri()
	if !m.Contains(0, geom.Vec3{X: 0.7, Y: 0.2}) {
		t.Error("interior point rejected")
	}
	if m.Contains(0, geom.Vec3{X: 0.1, Y: 0.9}) {
		t.Error("point in the other triangle accepted")
	}
	if m.Contains(0, geom.Vec3{X: 2, Y: 2}) {
		t.Error("far exterior point accepted")
	}
	// Vertices and edges are contained (closed simplex).
	if !m.Contains(0, geom.Vec3{X: 1, Y: 0}) {
		t.Error("vertex rejected")
	}
	m3 := twoTet()
	if !m3.Contains(0, geom.Vec3{X: 0.1, Y: 0.1, Z: 0.1}) {
		t.Error("3D interior point rejected")
	}
	if m3.Contains(0, geom.Vec3{X: 0.9, Y: 0.9, Z: 0.9}) {
		t.Error("3D exterior point accepted")
	}
}
