package rsb

import (
	"testing"

	"pared/internal/graph"
	"pared/internal/la"
	"pared/internal/meshgen"
	"pared/internal/partition"
)

func TestBisectGrid(t *testing.T) {
	m := meshgen.RectTri(16, 16, 0, 0, 1, 1)
	g := graph.FromDual(m)
	total := g.TotalVW()
	parts := Bisect(g, [2]int64{total / 2, total - total/2}, Config{}, 0)
	if err := partition.Check(parts, 2); err != nil {
		t.Fatal(err)
	}
	w := partition.PartWeights(g, parts, 2)
	if d := w[0] - total/2; d > total/20 || d < -total/20 {
		t.Errorf("weights %v unbalanced", w)
	}
	cut := partition.EdgeCut(g, parts)
	// A spectral bisection of a 16×16 triangle grid should cut roughly the
	// grid diameter (~2·16 dual edges); anything over 4x that is broken.
	if cut > 130 {
		t.Errorf("cut = %d, too large for spectral split", cut)
	}
}

func TestPartitionGrid(t *testing.T) {
	m := meshgen.RectTri(20, 20, 0, 0, 1, 1)
	g := graph.FromDual(m)
	for _, p := range []int{4, 8} {
		parts := Partition(g, p, Config{})
		if err := partition.Check(parts, p); err != nil {
			t.Fatal(err)
		}
		if im := partition.Imbalance(g, parts, p); im > 0.12 {
			t.Errorf("p=%d imbalance %v", p, im)
		}
		seen := map[int32]bool{}
		for _, pt := range parts {
			seen[pt] = true
		}
		if len(seen) != p {
			t.Errorf("p=%d: only %d parts used", p, len(seen))
		}
	}
}

func TestMultilevelFiedlerMatchesDirect(t *testing.T) {
	// Above coarsenTo vertices, Bisect takes the multilevel path; its split
	// must be of similar quality to the median split of the Fiedler vector
	// Lanczos finds on the whole graph.
	g := graph.FromDual(meshgen.RectTri(24, 24, 0, 0, 1, 1))
	if g.N() <= coarsenTo {
		t.Fatalf("%d vertices do not reach the multilevel path", g.N())
	}
	total := g.TotalVW()
	direct := medianSplit(g, la.Fiedler(g.Laplacian(), lanczosTol, 400, 1), total/2)
	ml := Bisect(g, [2]int64{total / 2, total - total/2}, Config{}, 0)
	cd := partition.EdgeCut(g, direct)
	cm := partition.EdgeCut(g, ml)
	if cm > 2*cd+10 {
		t.Errorf("multilevel cut %d much worse than direct %d", cm, cd)
	}
}

func TestRSBDeterministic(t *testing.T) {
	g := graph.FromDual(meshgen.RectTri(10, 10, 0, 0, 1, 1))
	a := Partition(g, 4, Config{Seed: 3})
	b := Partition(g, 4, Config{Seed: 3})
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("same seed produced different partitions")
		}
	}
}
