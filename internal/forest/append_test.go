package forest

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"pared/internal/mesh"
	"pared/internal/meshgen"
)

// churned refines m's forest in random rounds, un-bisects some of what it
// refined and refines again, so node and vertex slots are freed and taken
// again out of order and the trees are of every depth.
func churned(m *mesh.Mesh, seed int64) *Forest {
	rng := rand.New(rand.NewSource(seed))
	f := FromMesh(m)
	for round := 0; round < 6; round++ {
		for _, id := range f.Leaves() {
			if rng.Intn(3) == 0 {
				bisectLeaf(f, id)
			}
		}
		if round%2 == 1 {
			for i := range f.Nodes {
				n := &f.Nodes[i]
				if !n.Dead && !n.IsLeaf() && f.Node(n.Kids[0]).IsLeaf() && f.Node(n.Kids[1]).IsLeaf() && rng.Intn(2) == 0 {
					f.Unbisect(NodeID(i))
				}
			}
		}
	}
	return f
}

// TestAppendTreeMatchesEncodePayloads: for every tree of churned forests in
// 2D and 3D, bare and with a field, AppendTree writes exactly the payload
// bytes EncodePayloads writes for ExtractTree, after whatever buf holds,
// within TreeWireBound, and leaves the numbering scratch all -1; a batch of
// such trees decodes through DecodeEach into a forest with the same leaves.
func TestAppendTreeMatchesEncodePayloads(t *testing.T) {
	for _, tc := range []struct {
		name  string
		m     *mesh.Mesh
		field bool
	}{
		{"2D bare", meshgen.RectTri(4, 4, 0, 0, 1, 1), false},
		{"2D field", meshgen.RectTri(4, 4, 0, 0, 1, 1), true},
		{"3D bare", meshgen.BoxTet(2, 1, 1, 0, 0, 0, 1, 1, 1), false},
		{"3D field", meshgen.BoxTet(2, 1, 1, 0, 0, 0, 1, 1, 1), true},
	} {
		f := churned(tc.m, 7)
		if tc.field {
			withLinearField(f)
		}
		batch := []byte{0, 0, 0, 0}
		for i, r := range f.Roots() {
			want := EncodePayloads([]*TreePayload{f.ExtractTree(r)})[4:]
			got := f.AppendTree(nil, r)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: tree %d: AppendTree wrote %d bytes, EncodePayloads %d, or they differ", tc.name, r, len(got), len(want))
			}
			if bound := f.TreeWireBound(r); len(got) > bound {
				t.Fatalf("%s: tree %d of %d leaves: %d bytes past its bound %d", tc.name, r, f.LeafCount(r), len(got), bound)
			}
			prefix := len(batch)
			batch = f.AppendTree(batch, r)
			if !bytes.Equal(batch[prefix:], want) {
				t.Fatalf("%s: tree %d appended after %d bytes differs", tc.name, r, prefix)
			}
			binary.LittleEndian.PutUint32(batch, uint32(i+1))
		}
		for v, n := range f.vnum {
			if n != -1 {
				t.Fatalf("%s: numbering scratch of slot %d left at %d", tc.name, v, n)
			}
		}
		g := New(f.Dim)
		if err := DecodeEach(batch, new(TreePayload), g.InsertTree); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, got := f.CanonicalLeaves(), g.CanonicalLeaves()
		if len(got) != len(want) || (g.Field == nil) != !tc.field {
			t.Fatalf("%s: %d leaves arrived of %d, field %v", tc.name, len(got), len(want), g.Field != nil)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: leaf %d differs after the batch", tc.name, i)
			}
		}
		if err := g.CheckVertices(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// benchForest is the forest of BenchmarkVisitLeaves: about 400 trees and
// 3 000 leaves, as one rank of the cycle benchmark holds.
func benchForest() *Forest {
	f := FromMesh(meshgen.RectTri(14, 14, 0, 0, 1, 1))
	for round := 0; round < 3; round++ {
		for _, id := range f.Leaves() {
			bisectLeaf(f, id)
		}
	}
	return f
}

// appendAll encodes every tree of f as one batch onto buf[:0].
func appendAll(f *Forest, buf []byte) []byte {
	buf = append(buf[:0], 0, 0, 0, 0)
	for _, r := range f.roots {
		buf = f.AppendTree(buf, r)
	}
	binary.LittleEndian.PutUint32(buf, uint32(len(f.roots)))
	return buf
}

// BenchmarkAppendTree is the send side of a migration: every tree of the
// forest appended to a lane with room for it. It is pinned at zero
// allocations (BENCH_allocs.json): the forest extracts into the payload it
// keeps.
func BenchmarkAppendTree(b *testing.B) {
	f := benchForest()
	size := 4
	for _, r := range f.roots {
		size += f.TreeWireBound(r)
	}
	buf := appendAll(f, make([]byte, 0, size))
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendAll(f, buf)
	}
}

// BenchmarkDecodeInsert is the receive side: the lane of every tree of the
// forest decoded into one payload and inserted into a forest, which then
// drops them again. It is pinned at zero allocations: the payload, the
// vertex map and the forest's tables are reused.
func BenchmarkDecodeInsert(b *testing.B) {
	f := benchForest()
	buf := appendAll(f, nil)
	g := New(f.Dim)
	var scratch TreePayload
	round := func() {
		if err := DecodeEach(buf, &scratch, g.InsertTree); err != nil {
			b.Fatal(err)
		}
		for _, r := range f.roots {
			g.RemoveTree(r)
		}
	}
	round()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
