package forest

import (
	"math/rand"
	"testing"

	"pared/internal/geom"
	"pared/internal/mesh"
	"pared/internal/meshgen"
)

// geometricMasks is what VisitRootBoundary must reproduce, derived from
// coordinates alone: a point lies on the root facet opposite root vertex j
// exactly when the simplex with vertex j replaced by the point is flat. The
// test meshes have dyadic coordinates, so the volumes are exact.
func geometricMasks(f *Forest, rootVerts [4]geom.Vec3, leaf NodeID) (on [4]uint8) {
	n := f.Node(leaf)
	for k := 0; k < n.Nv(); k++ {
		for j := 0; j < n.Nv(); j++ {
			s := rootVerts
			s[j] = f.Coords[n.Verts[k]]
			flat := geom.TriangleAreaSigned(s[0], s[1], s[2]) == 0
			if f.Dim == mesh.D3 {
				flat = geom.TetVolumeSigned(s[0], s[1], s[2], s[3]) == 0
			}
			if flat {
				on[k] |= 1 << j
			}
		}
	}
	return on
}

// TestVisitRootBoundaryMatchesGeometry: on randomly bisected and un-bisected
// trees, before and after a trip through the migration payload, the descent visits exactly the leaves with a vertex on their
// root simplex's boundary, in VisitTreeLeaves order, with the masks the
// coordinates give.
func TestVisitRootBoundaryMatchesGeometry(t *testing.T) {
	for name, m := range map[string]*mesh.Mesh{
		"2d": meshgen.RectTri(4, 2, 0, 0, 1, 1),
		"3d": meshgen.BoxTet(1, 1, 1, 0, 0, 0, 1, 1, 1),
	} {
		rng := rand.New(rand.NewSource(7))
		f := FromMesh(m)
		visited, pruned := 0, 0
		check := func(when string) {
			for _, root := range f.Roots() {
				var rootVerts [4]geom.Vec3
				for k, v := range m.Elems[root].V[:m.Elems[root].Nv()] {
					rootVerts[k] = m.Verts[v]
				}
				type visit struct {
					leaf NodeID
					on   [4]uint8
				}
				var want, got []visit
				f.VisitTreeLeaves(root, func(id NodeID) {
					if on := geometricMasks(f, rootVerts, id); on != [4]uint8{} {
						want = append(want, visit{id, on})
					} else {
						pruned++
					}
				})
				f.VisitRootBoundary(root, func(id NodeID, on [4]uint8) { got = append(got, visit{id, on}) })
				visited += len(got)
				if len(got) != len(want) {
					t.Fatalf("%s %s: tree %d: %d leaves visited, %d touch the root boundary", name, when, root, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s %s: tree %d visit %d: leaf %d masks %04b, coordinates give leaf %d masks %04b",
							name, when, root, i, got[i].leaf, got[i].on, want[i].leaf, want[i].on)
					}
				}
			}
		}
		check("unrefined")
		// Deep enough for leaves with no vertex on their root's boundary: a
		// tetrahedron has none before its first interior edge is bisected.
		for round := 0; round < 4*int(m.Dim); round++ {
			for _, id := range f.Leaves() {
				if rng.Intn(2) == 0 {
					bisectLeaf(f, id)
				}
			}
			check("after bisection")
		}
		for i := range f.Nodes {
			n := &f.Nodes[i]
			if !n.Dead && !n.IsLeaf() && f.Node(n.Kids[0]).IsLeaf() && f.Node(n.Kids[1]).IsLeaf() && rng.Intn(3) == 0 {
				f.Unbisect(NodeID(i))
			}
		}
		check("after un-bisection")
		// Migrate every other tree out and back in reverse order: new node
		// slots, new local vertex indices, the same positions.
		var out []*TreePayload
		for _, root := range f.Roots() {
			if root%2 == 0 {
				out = append(out, f.ExtractTree(root))
				f.RemoveTree(root)
			}
		}
		ps, err := DecodePayloads(EncodePayloads(out))
		if err != nil {
			t.Fatal(err)
		}
		for i := len(ps) - 1; i >= 0; i-- {
			f.InsertTree(ps[i])
		}
		check("after migration")
		if pruned == 0 || visited == 0 {
			t.Errorf("%s: %d leaves visited, %d interior: one side of the classification was never exercised", name, visited, pruned)
		}
	}
}

// BenchmarkVisitRootBoundary is the descent the engine's three interface
// derivations fold over, on the forest of BenchmarkVisitLeaves (about 400
// trees and 3 000 leaves). It is pinned at zero allocations: the masks travel
// by value and nothing is stored per node.
func BenchmarkVisitRootBoundary(b *testing.B) {
	f := FromMesh(meshgen.RectTri(14, 14, 0, 0, 1, 1))
	for round := 0; round < 3; round++ {
		for _, id := range f.Leaves() {
			bisectLeaf(f, id)
		}
	}
	roots := f.Roots()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, r := range roots {
			f.VisitRootBoundary(r, func(_ NodeID, on [4]uint8) { n += int(on[0] | on[1] | on[2]) })
		}
		leafSink = n
	}
}
