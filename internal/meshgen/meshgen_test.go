package meshgen

import (
	"math"
	"testing"

	"pared/internal/graph"
	"pared/internal/mesh"
)

func TestRectTriCountsAndArea(t *testing.T) {
	m := RectTri(4, 3, 0, 0, 2, 1.5)
	if got := m.NumVerts(); got != 5*4 {
		t.Errorf("verts = %d, want 20", got)
	}
	if got := m.NumElems(); got != 4*3*2 {
		t.Errorf("elems = %d, want 24", got)
	}
	if a := m.TotalVolume(); math.Abs(a-3.0) > 1e-12 {
		t.Errorf("area = %v, want 3", a)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConforming(); err != nil {
		t.Fatal(err)
	}
}

func TestBoxTetCountsAndVolume(t *testing.T) {
	m := BoxTet(3, 2, 2, 0, 0, 0, 3, 2, 2)
	if got := m.NumElems(); got != 3*2*2*6 {
		t.Errorf("elems = %d, want 72", got)
	}
	if v := m.TotalVolume(); math.Abs(v-12.0) > 1e-9 {
		t.Errorf("volume = %v, want 12", v)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConforming(); err != nil {
		t.Fatal(err)
	}
}

func TestBoxTetConformingAcrossCells(t *testing.T) {
	m := BoxTet(2, 2, 2, 0, 0, 0, 1, 1, 1)
	// Every interior facet must be shared by exactly two tets; FromDual panics
	// if more, Validate catches it, and the dual graph must be connected
	// enough that each tet has at least one neighbor.
	g := graph.FromDual(m)
	for e := int32(0); e < int32(g.N()); e++ {
		if g.Degree(e) == 0 {
			t.Fatalf("tet %d isolated: Kuhn subdivision not conforming", e)
		}
	}
}

func TestPaperMeshes(t *testing.T) {
	m2 := PaperMesh2D()
	if got := m2.NumElems(); got != 12482 {
		t.Errorf("2D paper mesh = %d elements, want 12482", got)
	}
	m3 := PaperMesh3D()
	if got := m3.NumElems(); got != 10368 {
		t.Errorf("3D paper mesh = %d elements, want 10368", got)
	}
	if err := m2.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := m3.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRectTriDegeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RectTri(0, ...) should panic")
		}
	}()
	RectTri(0, 1, 0, 0, 1, 1)
}

func TestDualOfStructuredMeshIsManifold(t *testing.T) {
	m := RectTri(10, 10, -1, -1, 1, 1)
	g := graph.FromDual(m)
	for e := int32(0); e < int32(g.N()); e++ {
		if g.Degree(e) > 3 {
			t.Fatalf("triangle %d has %d facet neighbors", e, g.Degree(e))
		}
	}
	_ = mesh.D2
}
