package experiments

import (
	"fmt"
	"io"

	"pared/internal/partition"
	"pared/internal/partition/mlkl"
)

// Theorem61 is the empirical companion to the §6.1 competitive analysis: a
// partition Πᵗ of the refined mesh Mᵗ can be converted into a partition Π⁰
// that respects coarse-element boundaries with cut at most 9·C and at most
// (p−1)·d² extra elements per processor. The experiment takes Multilevel-KL
// partitions of the fine mesh, projects each tree to the processor owning the
// plurality of its leaves, and reports the observed cut expansion and balance
// loss — both should sit well inside the theorem's bounds on these meshes.
func Theorem61(w io.Writer, scale Scale) {
	c := fig1Cases(scale)[0] // the 2D corner problem
	snaps := AdaptSeries(c.m0, c.est, c.tol, c.maxLevel, c.maxPass)
	procs := []int{4, 16, 64}
	if scale == Quick {
		procs = []int{4, 8}
	}
	t := &Table{
		Title: "Theorem 6.1 (empirical): cut expansion of coarse-respecting projection (bound: 9x)",
		Header: []string{"level", "elems", "procs", "cut(fine)", "cut(proj)",
			"expansion", "imb(fine)", "imb(proj)", "(p-1)d^2"},
	}
	for li, s := range snaps {
		if li == 0 {
			continue // unrefined mesh: projection is the identity
		}
		for _, p := range procs {
			fine := mlkl.Partition(s.Fine, p, mlkl.Config{Seed: 3})
			proj := projectToTrees(s, fine, p)
			cutF := partition.EdgeCut(s.Fine, fine)
			cutP := partition.EdgeCut(s.Fine, proj)
			exp := float64(cutP) / float64(max(cutF, 1))
			d := int(s.MaxLevel)
			t.AddRow(li, s.Leaf.Mesh.NumElems(), p, cutF, cutP,
				fmt.Sprintf("%.2f", exp),
				fmt.Sprintf("%.3f", partition.Imbalance(s.Fine, fine, p)),
				fmt.Sprintf("%.3f", partition.Imbalance(s.Fine, proj, p)),
				(p-1)*d*d)
		}
	}
	t.Fprint(w)
}

// projectToTrees assigns every leaf of a tree to the processor owning the
// plurality of the tree's leaves under the fine partition (the lowest such
// processor on a tie).
func projectToTrees(s *Snapshot, fine []int32, p int) []int32 {
	votes := make([]int64, s.G.N()*p) // votes[r*p+j]: tree r's leaves on processor j
	for e, r := range s.Leaf.LeafRoot {
		votes[int(r)*p+int(fine[e])]++
	}
	rootOwner := make([]int32, s.G.N())
	for r := range rootOwner {
		v := votes[r*p : (r+1)*p]
		for j := 1; j < p; j++ {
			if v[j] > v[rootOwner[r]] {
				rootOwner[r] = int32(j)
			}
		}
	}
	out := make([]int32, len(fine))
	for e, r := range s.Leaf.LeafRoot {
		out[e] = rootOwner[r]
	}
	return out
}
