package forest

import (
	"testing"

	"pared/internal/meshgen"
)

func TestCompactVerticesReclaimsOrphans(t *testing.T) {
	m := meshgen.RectTri(3, 3, 0, 0, 1, 1)
	f := FromMesh(m)
	// Refine every leaf twice, then remove half the trees: their private
	// vertices become orphans.
	for round := 0; round < 2; round++ {
		for _, id := range f.Leaves() {
			n := f.Node(id)
			a, b := f.LongestEdge(id)
			mid := f.InternVertex(MidID(f.VIDs[a], f.VIDs[b]), f.Coords[a].Mid(f.Coords[b]))
			_ = n
			f.Bisect(id, a, b, mid)
		}
	}
	before := f.CanonicalLeaves()
	roots := f.Roots()
	for _, r := range roots[:len(roots)/2] {
		f.RemoveTree(r)
	}
	wantLeaves := f.CanonicalLeaves()
	verts := len(f.Coords)
	oldVIDs := append([]VertexID(nil), f.VIDs...)
	reclaimed, remap := f.CompactVertices()
	if reclaimed <= 0 {
		t.Fatalf("no orphans reclaimed (had %d vertices)", verts)
	}
	if len(f.Coords) != verts-reclaimed {
		t.Errorf("vertex table size %d, want %d", len(f.Coords), verts-reclaimed)
	}
	// The remap sends every kept vertex to its new index, in order and never
	// upwards, and every reclaimed one to -1.
	if len(remap) != verts {
		t.Fatalf("remap has %d entries for %d vertices", len(remap), verts)
	}
	next, dropped := int32(0), 0
	for old, nv := range remap {
		if nv < 0 {
			dropped++
			continue
		}
		if nv != next || nv > int32(old) || f.VIDs[nv] != oldVIDs[old] {
			t.Fatalf("remap[%d] = %d: want %d, the next kept index, holding the same vertex", old, nv, next)
		}
		next++
	}
	if dropped != reclaimed {
		t.Errorf("remap drops %d vertices, %d reclaimed", dropped, reclaimed)
	}
	// Structure preserved: canonical leaves unchanged, interning still works.
	got := f.CanonicalLeaves()
	if len(got) != len(wantLeaves) {
		t.Fatalf("leaf count changed: %d vs %d", len(got), len(wantLeaves))
	}
	for i := range got {
		if got[i] != wantLeaves[i] {
			t.Fatalf("canonical leaf %d changed", i)
		}
	}
	for i, id := range f.VIDs {
		if f.LookupVertex(id) != int32(i) {
			t.Fatalf("vidx inconsistent at %d", i)
		}
	}
	// Leaf mesh still valid and conforming.
	lm := f.LeafMesh().Mesh
	if err := lm.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = before
}

func TestCompactVerticesNoOrphansIsNoop(t *testing.T) {
	f := FromMesh(meshgen.RectTri(2, 2, 0, 0, 1, 1))
	if n, remap := f.CompactVertices(); n != 0 || remap != nil {
		t.Errorf("reclaimed %d from a fresh forest, remap %v", n, remap)
	}
}
