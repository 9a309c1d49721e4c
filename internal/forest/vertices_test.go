package forest

import (
	"reflect"
	"strings"
	"testing"

	"pared/internal/geom"
	"pared/internal/index"
	"pared/internal/meshgen"
)

// bisectRoot bisects the root of tree 0 at its longest edge and returns the
// midpoint's slot and global ID.
func bisectRoot(f *Forest) (mid int32, id VertexID) {
	root := f.Root(0)
	a, b := f.LongestEdge(root)
	id = MidID(f.VIDs[a], f.VIDs[b])
	mid = f.InternVertex(id, f.Coords[a].Mid(f.Coords[b]))
	f.Bisect(root, a, b, mid)
	return mid, id
}

// TestVertexSlotsLiveWithTheirNodes: a vertex slot is freed with its last
// node — by Unbisect, by RemoveTree, or at once by FromMesh for a vertex no
// element uses — leaves the index, and is the next slot InternVertex hands
// out, so the table does not grow; a vertex a held tree still uses stays.
func TestVertexSlotsLiveWithTheirNodes(t *testing.T) {
	m := meshgen.RectTri(1, 1, 0, 0, 1, 1) // two triangles on a shared diagonal
	m.Verts = append(m.Verts, geom.Vec3{X: 7})
	f := FromMesh(m)
	check := func(when string) {
		t.Helper()
		if err := f.CheckVertices(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("built")
	unused := int32(len(m.Verts) - 1)
	if f.Uses(unused) != 0 || f.LookupVertex(VertexID(unused)) != -1 {
		t.Fatal("FromMesh kept a vertex no element uses")
	}
	mid, id := bisectRoot(f)
	check("bisected")
	if mid != unused || f.Uses(mid) != 2 {
		t.Fatalf("midpoint in slot %d with %d uses, want the free slot %d with 2", mid, f.Uses(mid), unused)
	}
	f.Unbisect(f.Root(0))
	check("unbisected")
	if f.Uses(mid) != 0 || f.LookupVertex(id) != -1 {
		t.Fatal("Unbisect kept the midpoint its children alone used")
	}
	size := len(f.Coords)
	if again, _ := bisectRoot(f); again != mid || len(f.Coords) != size {
		t.Fatalf("the midpoint came back in slot %d of %d, want the freed slot %d of %d", again, len(f.Coords), mid, size)
	}
	check("bisected again")

	// Tree 0 leaves: its private corner and the midpoint go, the diagonal
	// tree 1 shares stays. Back in, the tree takes the freed slots.
	corners := f.Node(f.Root(0)).Verts
	p := f.ExtractTree(0)
	f.RemoveTree(0)
	check("tree 0 removed")
	freed := 0
	for _, v := range corners[:3] {
		if f.Uses(v) == 0 {
			freed++
		} else if f.Uses(v) != 1 {
			t.Errorf("vertex %d of the shared diagonal has %d uses, want tree 1's one", v, f.Uses(v))
		}
	}
	if freed != 1 || f.Uses(mid) != 0 {
		t.Fatalf("%d corners and a midpoint with %d uses left behind, want one private corner freed and the midpoint", freed, f.Uses(mid))
	}
	f.InsertTree(p)
	check("tree 0 back")
	if len(f.Coords) != size {
		t.Fatalf("the vertex table grew from %d to %d slots", size, len(f.Coords))
	}
}

// TestCheckVerticesCatchesCorruption breaks each rule of the vertex
// bookkeeping once and requires CheckVertices to name it.
func TestCheckVerticesCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		rule    string
		corrupt func(f *Forest, free int32)
		want    string
	}{
		{"a use count equals a recount", func(f *Forest, _ int32) { f.uses[0]-- }, "counts"},
		{"a free slot is not indexed", func(f *Forest, free int32) { f.vidx.FindOrPut(uint64(f.VIDs[free]), free) }, "free vertex slot"},
		{"a used slot is indexed", func(f *Forest, _ int32) { f.vidx.Delete(uint64(f.VIDs[0])) }, "is not free"},
		{"a slot is free once", func(f *Forest, free int32) { f.freeV = append(f.freeV, free) }, "twice"},
	} {
		f := FromMesh(meshgen.RectTri(1, 1, 0, 0, 1, 1))
		free, _ := bisectRoot(f)
		f.Unbisect(f.Root(0))
		if err := f.CheckVertices(); err != nil {
			t.Fatalf("%s: before corruption: %v", tc.rule, err)
		}
		tc.corrupt(f, free)
		if err := f.CheckVertices(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckVertices = %v, want an error containing %q", tc.rule, err, tc.want)
		}
	}
}

// TestInsertTreeRejectsAliasedVertexIDs: a payload that names a vertex ID
// twice, or names one the forest holds at other coordinates, is an error, and
// the forest is left exactly as it was; the same payload unaltered inserts.
func TestInsertTreeRejectsAliasedVertexIDs(t *testing.T) {
	m := meshgen.RectTri(2, 1, 0, 0, 1, 1)
	holder := func() *Forest { // trees 0, 2 and 3: tree 1 left out
		f := FromMesh(m)
		f.RemoveTree(1)
		return f
	}
	tree1 := func() *TreePayload { return FromMesh(m).ExtractTree(1) }
	f := holder()
	shared := -1 // a vertex of tree 1 that the holder holds
	for i, id := range tree1().VIDs {
		if f.LookupVertex(id) >= 0 {
			shared = i
			break
		}
	}
	if shared < 0 {
		t.Fatal("tree 1 shares no vertex with the other trees")
	}
	for _, tc := range []struct {
		name  string
		alter func(p *TreePayload)
		want  string
	}{
		{"held at other coordinates", func(p *TreePayload) { p.Coords[shared].Y += 0.5 }, "held at"},
		{"named twice at one place", func(p *TreePayload) { p.VIDs[1], p.Coords[1] = p.VIDs[0], p.Coords[0] }, "twice"},
		{"named twice at two places", func(p *TreePayload) { p.VIDs[2] = p.VIDs[1] }, "twice"},
	} {
		f, twin := holder(), holder()
		p := tree1()
		tc.alter(p)
		err := f.InsertTree(p)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		f.seen, twin.seen = index.Map{}, index.Map{} // the check's scratch
		if !reflect.DeepEqual(f, twin) {
			t.Errorf("%s: the rejected tree changed the forest", tc.name)
		}
	}
	f = holder()
	if err := f.InsertTree(tree1()); err != nil || f.NumRoots() != 4 {
		t.Fatalf("unaltered tree: %v, %d roots", err, f.NumRoots())
	}
	if err := f.CheckVertices(); err != nil {
		t.Fatal(err)
	}
}
