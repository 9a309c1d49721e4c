package forest

import (
	"math/rand"
	"slices"
	"testing"

	"pared/internal/meshgen"
)

// bisectLeaf splits leaf id at its longest edge, with no regard for the
// neighbours' conformity: the sweeps under test do not look at it.
func bisectLeaf(f *Forest, id NodeID) {
	a, b := f.LongestEdge(id)
	mid := f.InternVertex(MidID(f.VIDs[a], f.VIDs[b]), f.Coords[a].Mid(f.Coords[b]))
	f.Bisect(id, a, b, mid)
}

// sortEveryTime is the visit order the root index must reproduce, derived
// from the node table alone: collect the live parentless nodes, sort them by
// root, walk each tree.
func sortEveryTime(f *Forest) (roots []int32, leaves []NodeID) {
	at := make(map[int32]NodeID)
	for i := range f.Nodes {
		if n := &f.Nodes[i]; !n.Dead && n.Parent == NoNode {
			at[n.Root] = NodeID(i)
			roots = append(roots, n.Root)
		}
	}
	slices.Sort(roots)
	for _, r := range roots {
		f.visitLeavesFrom(at[r], func(id NodeID) { leaves = append(leaves, id) })
	}
	return roots, leaves
}

// TestRootsIndexInvalidation interleaves every mutation that adds or removes a
// tree with every reader of the sorted root list and the dense root index,
// and holds each read to the sort-every-time order: no sequence of mutations
// may leave the list out of order, short of a tree or holding one twice, or
// leave Root or LeafCount answering for a tree that is not held.
func TestRootsIndexInvalidation(t *testing.T) {
	maxAdded := int32(-1) // the largest root ever added to any forest here
	check := func(f *Forest, when string) {
		t.Helper()
		wantRoots, wantLeaves := sortEveryTime(f)
		for id := int32(-1); id <= maxAdded+1; id++ {
			wantNode, wantCount := NoNode, 0
			for i := range f.Nodes {
				if n := &f.Nodes[i]; !n.Dead && n.Parent == NoNode && n.Root == id {
					wantNode = NodeID(i)
					f.visitLeavesFrom(wantNode, func(NodeID) { wantCount++ })
				}
			}
			if got := f.Root(id); got != wantNode {
				t.Fatalf("%s: Root(%d) = %d, want %d", when, id, got, wantNode)
			}
			if got := f.LeafCount(id); got != wantCount {
				t.Fatalf("%s: LeafCount(%d) = %d, want %d", when, id, got, wantCount)
			}
		}
		if got := f.Roots(); !slices.Equal(got, wantRoots) {
			t.Fatalf("%s: Roots() = %v, want %v", when, got, wantRoots)
		}
		var visited []NodeID
		f.VisitLeaves(func(id NodeID) { visited = append(visited, id) })
		if !slices.Equal(visited, wantLeaves) {
			t.Fatalf("%s: VisitLeaves order differs from the sort-every-time order", when)
		}
		if got := f.Leaves(); !slices.Equal(got, wantLeaves) || len(got) != f.NumLeaves() {
			t.Fatalf("%s: Leaves() differs from the sort-every-time order", when)
		}
		var perTree []NodeID
		for _, r := range wantRoots {
			f.VisitTreeLeaves(r, func(id NodeID) { perTree = append(perTree, id) })
		}
		if !slices.Equal(perTree, wantLeaves) {
			t.Fatalf("%s: VisitTreeLeaves over the roots differs from VisitLeaves", when)
		}
	}

	m := meshgen.RectTri(3, 3, 0, 0, 1, 1)
	empty := New(m.Dim)
	check(empty, "empty forest")
	if r := empty.Roots(); r == nil || len(r) != 0 {
		t.Errorf("Roots() of an empty forest = %#v, want an empty non-nil slice", r)
	}
	empty.VisitLeaves(func(NodeID) { t.Error("VisitLeaves called fn on an empty forest") })

	// AddRoot in descending order: the list must sort, not record arrivals.
	src := FromMesh(m)
	f := New(m.Dim)
	maxAdded = int32(m.NumElems()) - 1
	for i := range src.VIDs {
		f.InternVertex(src.VIDs[i], src.Coords[i])
	}
	for r := int32(m.NumElems()) - 1; r >= 0; r-- {
		f.AddRoot(r, src.Node(src.Root(r)).Verts)
		if r%5 == 0 {
			check(f, "after AddRoot")
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		leaves := f.Leaves()
		bisectLeaf(f, leaves[rng.Intn(len(leaves))])
	}
	check(f, "after bisections")

	// A slice from Roots() is the caller's: removing trees while ranging over
	// it (what migrate does) neither skips nor repeats a root.
	var kept []int32
	var parked []*TreePayload
	seen := 0
	for _, r := range f.Roots() {
		seen++
		if r%3 == 0 {
			parked = append(parked, f.ExtractTree(r))
			f.RemoveTree(r)
			check(f, "after RemoveTree inside a Roots() loop")
		} else {
			kept = append(kept, r)
		}
	}
	if seen != m.NumElems() || !slices.Equal(f.Roots(), kept) {
		t.Fatalf("ranged over %d roots and kept %v, want %d and %v", seen, f.Roots(), m.NumElems(), kept)
	}

	// InsertTree and RemoveTree back to back, reads in between and none.
	rng.Shuffle(len(parked), func(i, j int) { parked[i], parked[j] = parked[j], parked[i] })
	for i, p := range parked {
		f.InsertTree(p)
		if i%2 == 0 {
			check(f, "after InsertTree")
		}
	}
	f.RemoveTree(kept[0])
	f.RemoveTree(kept[len(kept)-1])
	f.AddRoot(kept[0], src.Node(src.Root(kept[0])).Verts)
	check(f, "after a batch of mutations with no read in between")

	// A root past every other grows the index; removed, it leaves the index
	// long and the slot empty.
	far := *f.ExtractTree(kept[1])
	far.Root = maxAdded + 9
	maxAdded = far.Root
	f.InsertTree(&far)
	check(f, "after InsertTree of a root past the index")
	f.RemoveTree(far.Root)
	check(f, "after RemoveTree of the largest root")
	for _, r := range f.Roots() {
		f.RemoveTree(r)
	}
	check(f, "after removing every tree")
	if f.NumRoots() != 0 || f.NumLeaves() != 0 {
		t.Errorf("emptied forest holds %d roots, %d leaves", f.NumRoots(), f.NumLeaves())
	}
}

var leafSink int

// BenchmarkVisitLeaves is the sweep every per-epoch pass is built on: about
// 400 trees and 3 000 leaves, as one rank of the cycle benchmark holds. It
// is pinned at zero allocations (BENCH_allocs.json): the walk reads the sorted
// root list, it does not collect and sort the roots.
func BenchmarkVisitLeaves(b *testing.B) {
	f := FromMesh(meshgen.RectTri(14, 14, 0, 0, 1, 1))
	for round := 0; round < 3; round++ {
		for _, id := range f.Leaves() {
			bisectLeaf(f, id)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		f.VisitLeaves(func(NodeID) { n++ })
		leafSink = n
	}
}

// TestChangedBit: a tree is changed from its first Bisect or Unbisect until
// ClearChanged, and only that tree; a tree enters the forest clean, whether by
// AddRoot or by InsertTree of a changed tree's payload, and an id the forest
// does not hold is never changed.
func TestChangedBit(t *testing.T) {
	f := FromMesh(meshgen.RectTri(2, 2, 0, 0, 1, 1)) // trees 0..7
	changed := func() (out []int32) {
		for r := int32(-1); r <= 9; r++ {
			if f.Changed(r) {
				out = append(out, r)
			}
		}
		return out
	}
	if got := changed(); got != nil {
		t.Fatalf("a fresh forest has changed trees %v", got)
	}
	bisectLeaf(f, f.Root(3))
	bisectLeaf(f, f.Node(f.Root(3)).Kids[1])
	bisectLeaf(f, f.Root(5))
	if got := changed(); !slices.Equal(got, []int32{3, 5}) {
		t.Fatalf("after bisecting trees 3 and 5: changed %v", got)
	}
	f.ClearChanged()
	if got := changed(); got != nil {
		t.Fatalf("after ClearChanged: changed %v", got)
	}
	f.Unbisect(f.Node(f.Root(3)).Kids[1])
	if got := changed(); !slices.Equal(got, []int32{3}) {
		t.Fatalf("after un-bisecting in tree 3: changed %v", got)
	}
	p := f.ExtractTree(3)
	f.RemoveTree(3)
	if f.Changed(3) {
		t.Fatal("a removed tree is changed")
	}
	if err := f.InsertTree(p); err != nil {
		t.Fatal(err)
	}
	if got := changed(); got != nil || f.LeafCount(3) != 2 {
		t.Fatalf("after moving tree 3 out and back: changed %v, %d leaves", got, f.LeafCount(3))
	}
}
