package forest

import (
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"pared/internal/geom"
	"pared/internal/meshgen"
)

// linear is a field that P1 interpolation reproduces exactly on dyadic
// coordinates, so a midpoint's value can be checked against it bit for bit.
func linear(c geom.Vec3) float64 { return 3*c.X - c.Y + 0.25 }

// withLinearField gives f a field set to linear at every vertex slot.
func withLinearField(f *Forest) {
	f.Field = make([]float64, len(f.Coords))
	for v, c := range f.Coords {
		f.Field[v] = linear(c)
	}
}

// TestInternMidpointInterpolates: a midpoint InternMidpoint makes takes the
// mean of its endpoints' values, whichever way round the edge is named; one
// already held keeps its value; a forest without a field stays without one,
// and a fresh slot InternVertex hands out starts at 0.
func TestInternMidpointInterpolates(t *testing.T) {
	bare := FromMesh(meshgen.RectTri(1, 1, 0, 0, 1, 1))
	bisectRoot(bare)
	if bare.Field != nil {
		t.Fatal("bisecting a forest without a field gave it one")
	}

	f := FromMesh(meshgen.RectTri(1, 1, 0, 0, 1, 1))
	withLinearField(f)
	root := f.Root(0)
	a, b := f.LongestEdge(root)
	mid := f.InternMidpoint(b, a)
	if want := linear(f.Coords[mid]); f.Field[mid] != want || len(f.Field) != len(f.Coords) {
		t.Fatalf("midpoint value %v of %d slots, want %v of %d", f.Field[mid], len(f.Field), want, len(f.Coords))
	}
	f.Bisect(root, a, b, mid)
	f.Field[mid] = 7
	if again := f.InternMidpoint(a, b); again != mid || f.Field[mid] != 7 {
		t.Fatalf("a held midpoint came back as slot %d with %v, want slot %d with 7", again, f.Field[again], mid)
	}
	if err := f.CheckVertices(); err != nil {
		t.Fatal(err)
	}
	v := f.InternVertex(1<<40, geom.Vec3{X: 9})
	if f.Field[v] != 0 {
		t.Fatalf("a fresh slot starts at %v, want 0", f.Field[v])
	}
}

// TestFieldMigratesWithTree: ExtractTree carries the field value of every
// vertex it lists, the wire codec keeps those bits, and InsertTree gives them
// to vertices the receiver does not hold, keeps its own value at one it
// holds, and gives a forest without a field one (0 where it held vertices
// already). ExtractTree leaves its numbering scratch all -1.
func TestFieldMigratesWithTree(t *testing.T) {
	f := FromMesh(meshgen.RectTri(2, 2, 0, 0, 1, 1))
	withLinearField(f)
	mid, _ := bisectRoot(f)
	f.Field[mid] = math.Copysign(0, -1) // −0 must survive the wire as −0
	p := f.ExtractTree(0)
	if len(p.Field) != len(p.VIDs) {
		t.Fatalf("%d field values for %d vertices", len(p.Field), len(p.VIDs))
	}
	for i, id := range p.VIDs {
		if math.Float64bits(p.Field[i]) != math.Float64bits(f.Field[f.LookupVertex(id)]) {
			t.Fatalf("payload vertex %d carries %v, the forest holds %v", i, p.Field[i], f.Field[f.LookupVertex(id)])
		}
	}
	for v, n := range f.vnum {
		if n != -1 {
			t.Fatalf("numbering scratch of slot %d left at %d", v, n)
		}
	}
	ps, err := DecodePayloads(EncodePayloads([]*TreePayload{p}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Field {
		if math.Float64bits(ps[0].Field[i]) != math.Float64bits(p.Field[i]) {
			t.Fatalf("field value %d: %v off the wire, %v sent", i, ps[0].Field[i], p.Field[i])
		}
	}

	// A forest without a field that holds tree 1, which shares vertices with
	// tree 0: the shared ones start at 0, the rest take the payload's values.
	bare := f.ExtractTree(1)
	bare.Field = nil
	g := New(f.Dim)
	g.InsertTree(bare)
	if g.Field != nil {
		t.Fatal("a bare tree gave the forest a field")
	}
	g.InsertTree(ps[0])
	held := map[VertexID]bool{}
	for _, id := range bare.VIDs {
		held[id] = true
	}
	for i, id := range p.VIDs {
		want := p.Field[i]
		if held[id] {
			want = 0
		}
		if got := g.Field[g.LookupVertex(id)]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("vertex %x: %v, want %v", uint64(id), got, want)
		}
	}
	if err := g.CheckVertices(); err != nil {
		t.Fatal(err)
	}

	// A forest with a field keeps its own value at a vertex it holds.
	f.RemoveTree(0)
	shared := f.LookupVertex(p.VIDs[1])
	f.Field[shared] = 42
	f.InsertTree(p)
	if f.Field[shared] != 42 {
		t.Fatalf("a held vertex took the payload's value %v", f.Field[shared])
	}
}

// TestBarePayloadBytesUnchanged pins the wire bytes of a tree without a field
// to the encoding from before trees carried fields: the field flag is zero
// and no field words follow, so workloads that never solve send the same
// bytes as before.
func TestBarePayloadBytesUnchanged(t *testing.T) {
	want := strings.Join([]string{
		// One payload: root 0, level 0, 4 vertices (no field flag), 3 nodes.
		"01000000", "00000000", "00000000", "04000000", "03000000",
		// VIDs.
		"0000000000000000", "0100000000000000", "0300000000000000", "f02814e3ed5e539e",
		// Coordinates (0, 0, 0), (1, 0, 0), (1, 1, 0), (0.5, 0.5, 0).
		"000000000000000000000000000000000000000000000000",
		"000000000000f03f00000000000000000000000000000000",
		"000000000000f03f000000000000f03f0000000000000000",
		"000000000000e03f000000000000e03f0000000000000000",
		// The root and its two kids.
		"000000000100000002000000ffffffff0100000002000000000000000200000003000000",
		"000000000100000003000000ffffffffffffffffffffffff0000000000000000ffffffff",
		"030000000100000002000000ffffffffffffffffffffffff0000000000000000ffffffff",
	}, "")
	valid, _, _ := malformedPayloads()
	if got := hex.EncodeToString(valid); got != want {
		t.Fatalf("bare payload encodes to\n%s\nwant\n%s", got, want)
	}
	// The same tree with a field: the flag set, a count and four values more.
	f := FromMesh(meshgen.RectTri(1, 1, 0, 0, 1, 1))
	bisectRoot(f)
	withLinearField(f)
	fielded := EncodePayloads([]*TreePayload{f.ExtractTree(0)})
	if len(fielded) != len(valid)+4+4*8 || fielded[4+11] != valid[4+11]|0x80 {
		t.Fatalf("a payload with a field encodes to %d bytes, want %d with the flag set", len(fielded), len(valid)+4+4*8)
	}
}
