package forest

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"pared/internal/meshgen"
)

// forestFile returns a forest file of the given header and wire batch.
func forestFile(header string, batch []byte) *bytes.Reader {
	return bytes.NewReader(append([]byte(header+"\n"), batch...))
}

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
	f.Field = make([]float64, len(f.Coords))
	for v, c := range f.Coords {
		f.Field[v] = math.Sin(7*c.X) + c.Y/3
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	// The file is the header line and the wire batch of every tree in
	// ascending root order.
	var ps []*TreePayload
	for _, r := range f.Roots() {
		ps = append(ps, f.ExtractTree(r))
	}
	if want := append([]byte("pared-forest 2\n"), EncodePayloads(ps)...); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("file is %d bytes, want the header and batch's %d", buf.Len(), len(want))
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Dim != f.Dim || !slices.Equal(g.Roots(), f.Roots()) || g.NumLeaves() != f.NumLeaves() {
		t.Fatalf("shape mismatch: dim %d/%d roots %v/%v leaves %d/%d",
			g.Dim, f.Dim, g.Roots(), f.Roots(), g.NumLeaves(), f.NumLeaves())
	}
	if !slices.Equal(g.CanonicalLeaves(), f.CanonicalLeaves()) {
		t.Fatal("canonical leaves differ")
	}
	// The field survives bit for bit at every live vertex, whatever slot the
	// reload gave it.
	if len(g.Field) != len(g.Coords) {
		t.Fatalf("reloaded forest has %d field values for %d vertex slots", len(g.Field), len(g.Coords))
	}
	for v := range g.Coords {
		if g.Uses(int32(v)) == 0 {
			continue
		}
		want := f.Field[f.LookupVertex(g.VIDs[v])]
		if math.Float64bits(g.Field[v]) != math.Float64bits(want) {
			t.Fatalf("vertex %x: field %v after reload, %v before", uint64(g.VIDs[v]), g.Field[v], want)
		}
	}
	// The reloaded forest must remain refinable: its leaf mesh is valid.
	if err := g.LeafMesh().Mesh.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckVertices(); err != nil {
		t.Fatal(err)
	}
}

// TestForestReadRejectsGarbage: Read rejects, with an error and never a
// panic, every file-level fault: the header, a tree of the other dimension,
// roots that do not rise strictly from 0, a truncated body, trailing bytes,
// and trees whose vertex IDs would alias two vertices.
func TestForestReadRejectsGarbage(t *testing.T) {
	tri := FromMesh(meshgen.RectTri(2, 1, 0, 0, 1, 1)) // roots 0..3
	tet := FromMesh(meshgen.BoxTet(1, 1, 1, 0, 0, 0, 1, 1, 1))
	tree := func(f *Forest, root, as int32) *TreePayload {
		p := f.ExtractTree(root)
		p.Root = as
		return p
	}
	batch := func(ps ...*TreePayload) []byte { return EncodePayloads(ps) }
	two := batch(tree(tri, 0, 1), tree(tri, 1, 4))
	// moved is tree 0 again as root 4, with its first vertex elsewhere;
	// twice names one vertex ID as both of a tree's first two vertices.
	moved := tree(tri, 0, 4)
	moved.Coords[0].X += 5
	twice := tree(tri, 0, 1)
	twice.VIDs[1], twice.Coords[1] = twice.VIDs[0], twice.Coords[0]
	for _, tc := range []struct {
		name, header string
		batch        []byte
	}{
		{"garbage", "nope", nil},
		{"bad dimension", "pared-forest 7", two},
		{"header with trailing words", "pared-forest 2 2", two},
		{"tetrahedra under a 2D header", "pared-forest 2", batch(tree(tet, 0, 0))},
		{"triangles under a 3D header", "pared-forest 3", two},
		{"negative root", "pared-forest 2", batch(tree(tri, 0, -1))},
		{"repeated root", "pared-forest 2", batch(tree(tri, 0, 4), tree(tri, 1, 4))},
		{"descending roots", "pared-forest 2", batch(tree(tri, 0, 4), tree(tri, 1, 1))},
		{"truncated body", "pared-forest 2", two[:len(two)-1]},
		{"trailing bytes", "pared-forest 2", append(slices.Clone(two), 0)},
		{"root past the file's bound", "pared-forest 2", batch(tree(tri, 0, 1<<20))},
		{"a vertex ID at other coordinates than an earlier tree's", "pared-forest 2", batch(tree(tri, 0, 1), moved)},
		{"one vertex ID named twice in a tree", "pared-forest 2", batch(twice)},
	} {
		if f, err := Read(forestFile(tc.header, tc.batch)); err == nil {
			t.Errorf("%s: read %d trees, want an error", tc.name, f.NumRoots())
		}
	}
	if f, err := Read(forestFile("pared-forest 2", two)); err != nil || !slices.Equal(f.Roots(), []int32{1, 4}) {
		t.Errorf("two valid trees: %v", err)
	}
	if f, err := Read(forestFile("pared-forest 3", nil)); err != nil || f.NumRoots() != 0 || f.Dim != 3 {
		t.Errorf("empty 3D forest: %v", err)
	}
}

// TestForestReadRejectsMalformedTrees: a file holds every node to the check
// decodeWire applies to a migration, so each malformed wire batch under a
// valid header is an error, never a panic here or later in InsertTree or
// LeafMesh.
func TestForestReadRejectsMalformedTrees(t *testing.T) {
	valid, withField, cases := malformedPayloads()
	for _, buf := range [][]byte{valid, withField} {
		f, err := Read(forestFile("pared-forest 2", buf))
		if err != nil {
			t.Fatalf("valid tree: %v", err)
		}
		if err := f.LeafMesh().Mesh.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range cases {
		if _, err := Read(forestFile("pared-forest 2", tc.buf)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestForestReadBoundsRootIndex: a root sizes the forest's dense per-root
// index, so a small file naming root 10⁷ must be rejected before it costs
// anything like the index's 80 MB; Write refuses a forest that sparse.
func TestForestReadBoundsRootIndex(t *testing.T) {
	p := FromMesh(meshgen.RectTri(1, 1, 0, 0, 1, 1)).ExtractTree(0)
	p.Root = 10_000_000
	file := append([]byte("pared-forest 2\n"), EncodePayloads([]*TreePayload{p})...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(file))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Errorf("root %d in %d bytes accepted", p.Root, len(file))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("reading a %d-byte file allocated %d bytes", len(file), got)
	}

	sparse := New(2)
	p.Root = 1000
	sparse.InsertTree(p)
	if err := sparse.Write(&bytes.Buffer{}); err == nil {
		t.Error("Write accepted a forest whose only tree is root 1000")
	}
}

var errDiskFull = errors.New("disk full")

// fullWriter fails every write, as a full disk or a closed pipe would.
type fullWriter struct{}

func (fullWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestWriteReturnsWriterError: the writer's error reaches the caller.
func TestWriteReturnsWriterError(t *testing.T) {
	f := FromMesh(meshgen.RectTri(3, 3, -1, -1, 1, 1))
	if err := f.Write(fullWriter{}); !errors.Is(err, errDiskFull) {
		t.Errorf("Write: err = %v, want %v", err, errDiskFull)
	}
}
