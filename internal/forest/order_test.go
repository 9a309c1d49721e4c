package forest

import (
	"math/rand"
	"slices"
	"testing"

	"pared/internal/meshgen"
)

// TestSortLeavesIsVisitOrder sorts random subsets of the leaves, shuffled and
// with repeats, and holds SortLeaves to the order VisitLeaves meets them in,
// each once, in 2D and in 3D. The forests are bisected at random leaves' longest edges
// (without closure; the order does not need conformity), coarsened at random
// refined nodes whose children are leaves, and bisected again, so the later
// nodes sit in slots the coarsening freed and NodeID order is not visit order.
func TestSortLeavesIsVisitOrder(t *testing.T) {
	for _, f := range []*Forest{
		FromMesh(meshgen.RectTri(3, 3, -1, -1, 1, 1)),
		FromMesh(meshgen.BoxTet(2, 1, 1, -1, -1, -1, 1, 1, 1)),
	} {
		rng := rand.New(rand.NewSource(int64(f.Dim)))
		bisect := func(n int) {
			for i := 0; i < n; i++ {
				leaves := f.Leaves()
				id := leaves[rng.Intn(len(leaves))]
				a, b := f.LongestEdge(id)
				f.Bisect(id, a, b, f.InternMidpoint(a, b))
			}
		}
		bisect(300)
		for i := 0; i < 80; i++ {
			var pairs []NodeID
			for id := range f.Nodes {
				n := &f.Nodes[id]
				if !n.Dead && !n.IsLeaf() && f.Node(n.Kids[0]).IsLeaf() && f.Node(n.Kids[1]).IsLeaf() {
					pairs = append(pairs, NodeID(id))
				}
			}
			f.Unbisect(pairs[rng.Intn(len(pairs))])
		}
		if len(f.free) == 0 {
			t.Fatal("coarsening freed no slot")
		}
		bisect(200)
		if len(f.free) > 20 {
			t.Fatalf("%d slots still free: the refinement reused too few", len(f.free))
		}
		order := f.Leaves()
		if slices.IsSorted(order) {
			t.Fatal("NodeID order is visit order: the test shows nothing")
		}
		rank := make([]int, len(f.Nodes))
		for i, id := range order {
			rank[id] = i
		}
		for trial := 0; trial < 200; trial++ {
			var ids []NodeID
			for _, id := range order {
				for rng.Intn(4) == 0 {
					ids = append(ids, id)
				}
			}
			want := slices.Clone(ids)
			slices.SortFunc(want, func(a, b NodeID) int { return rank[a] - rank[b] })
			want = slices.Compact(want)
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			if got := f.SortLeaves(ids); !slices.Equal(got, want) {
				t.Fatalf("dim %d trial %d: SortLeaves gives %v, VisitLeaves order %v", f.Dim, trial, got, want)
			}
			if i := slices.Index(f.marked, true); i >= 0 {
				t.Fatalf("dim %d trial %d: node %d left marked", f.Dim, trial, i)
			}
		}
	}
}
