package forest

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"pared/internal/meshgen"
)

func TestForestIORoundTrip(t *testing.T) {
	f := FromMesh(meshgen.RectTri(3, 3, -1, -1, 1, 1))
	// Refine a few leaves so trees have structure.
	for i := 0; i < 3; i++ {
		leaves := f.Leaves()
		id := leaves[i*2%len(leaves)]
		a, b := f.LongestEdge(id)
		mid := f.InternVertex(MidID(f.VIDs[a], f.VIDs[b]), f.Coords[a].Mid(f.Coords[b]))
		f.Bisect(id, a, b, mid)
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Dim != f.Dim || g.NumRoots() != f.NumRoots() || g.NumLeaves() != f.NumLeaves() {
		t.Fatalf("shape mismatch: dim %d/%d roots %d/%d leaves %d/%d",
			g.Dim, f.Dim, g.NumRoots(), f.NumRoots(), g.NumLeaves(), f.NumLeaves())
	}
	a, b := f.CanonicalLeaves(), g.CanonicalLeaves()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("canonical leaf %d differs", i)
		}
	}
	// The reloaded forest must remain refinable: its leaf mesh is valid.
	if err := g.LeafMesh().Mesh.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestForestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("nope")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(strings.NewReader("pared-forest 7 1\n")); err == nil {
		t.Error("bad dimension accepted")
	}
	if _, err := Read(strings.NewReader("pared-forest 2 1\ntree 0 0 1 1\n5 0 0 0\n0 1 2 -1 -1 -1 0 0 -1\n")); err == nil {
		t.Error("out-of-range vertex index accepted")
	}
	// A root indexes the dense per-root index: a negative or repeated one is
	// an error, not a panic.
	tree := func(root string) string {
		return "tree " + root + " 0 3 1\n0 0 0 0\n1 1 0 0\n2 0 1 0\n0 1 2 -1 -1 -1 0 0 -1\n"
	}
	if _, err := Read(strings.NewReader("pared-forest 2 1\n" + tree("-1"))); err == nil {
		t.Error("negative root accepted")
	}
	if _, err := Read(strings.NewReader("pared-forest 2 2\n" + tree("4") + tree("4"))); err == nil {
		t.Error("repeated root accepted")
	}
	if f, err := Read(strings.NewReader("pared-forest 2 2\n" + tree("4") + tree("0"))); err != nil || f.NumRoots() != 2 {
		t.Errorf("two valid trees: %v", err)
	}
}

// TestForestReadRejectsMalformedTrees: Read holds every node to the check
// decodeWire applies (vertex words in [-1, nv), the header's simplex size of
// vertices, kids both -1 or both in (i, nn), an interior node's refinement
// edge and midpoint set) and rejects negative and empty counts, each with an
// error and never a panic, here or later in InsertTree or LeafMesh.
func TestForestReadRejectsMalformedTrees(t *testing.T) {
	const verts = "0 0 0 0\n1 1 0 0\n2 0 1 0\n"
	// tree is a three-vertex tree whose root is bisected into two leaves, with
	// the given root and kid lines.
	tree := func(root, kid string) string {
		return "pared-forest 2 1\ntree 0 0 3 3\n" + verts + root + "\n" + kid + "\n" + kid + "\n"
	}
	const leaf = "0 1 2 -1 -1 -1 0 0 -1"
	for _, tc := range []struct{ name, in string }{
		{"refinement edge past the table", tree("0 1 2 -1 1 2 7 1 2", leaf)},
		{"midpoint past the table", tree("0 1 2 -1 1 2 0 1 50", leaf)},
		{"vertex word below -1", tree("0 1 2 -1 1 2 0 1 2", "0 1 -5 -1 -1 -1 0 0 -1")},
		{"one kid only", tree("0 1 2 -1 1 -1 0 1 2", leaf)},
		{"kid pointing at its parent", tree("0 1 2 -1 0 0 0 1 2", leaf)},
		{"leaf vertex -1", tree("0 1 2 -1 1 2 0 1 2", "-1 1 2 -1 -1 -1 0 0 -1")},
		{"fourth vertex on a triangle", tree("0 1 2 -1 1 2 0 1 2", "0 1 2 0 -1 -1 0 0 -1")},
		{"interior refinement edge -1", tree("0 1 2 -1 1 2 -1 1 2", leaf)},
		{"interior midpoint -1", tree("0 1 2 -1 1 2 0 1 -1", leaf)},
		{"triangles under a 3D header", strings.Replace(tree("0 1 2 -1 1 2 0 1 2", leaf), "pared-forest 2", "pared-forest 3", 1)},
		{"negative vertex count", "pared-forest 2 1\ntree 0 0 -1 1\n" + leaf + "\n"},
		{"no nodes", "pared-forest 2 1\ntree 0 0 3 0\n" + verts},
		{"negative tree count", "pared-forest 2 -1\n"},
	} {
		if _, err := Read(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := Read(strings.NewReader(tree("0 1 2 -1 1 2 0 1 2", leaf))); err != nil {
		t.Errorf("valid tree: %v", err)
	}
}

var errDiskFull = errors.New("disk full")

// fullWriter fails every write, as a full disk or a closed pipe would.
type fullWriter struct{}

func (fullWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestWriteReturnsWriterError: Write buffers its output, so the writer's
// error first surfaces at the final flush; it must reach the caller.
func TestWriteReturnsWriterError(t *testing.T) {
	f := FromMesh(meshgen.RectTri(3, 3, -1, -1, 1, 1))
	if err := f.Write(fullWriter{}); !errors.Is(err, errDiskFull) {
		t.Errorf("Write: err = %v, want %v", err, errDiskFull)
	}
}
