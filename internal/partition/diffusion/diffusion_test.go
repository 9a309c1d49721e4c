package diffusion

import (
	"testing"

	"pared/internal/graph"
	"pared/internal/meshgen"
	"pared/internal/partition"
	"pared/internal/partition/mlkl"
)

// scenario: balanced grid partition, then a weight burst in one region.
func scenario(n, p int, boost int64) (*graph.Graph, []int32) {
	m := meshgen.RectTri(n, n, -1, -1, 1, 1)
	g := graph.FromDual(m)
	old := mlkl.Partition(g, p, mlkl.Config{Seed: 7})
	for v := range g.VW {
		c := m.Centroid(v)
		if c.X > 0.4 && c.Y > 0.4 {
			g.VW[v] *= boost
		}
	}
	return g, old
}

func TestDiffusionRebalances(t *testing.T) {
	for _, p := range []int{4, 8} {
		g, old := scenario(16, p, 4)
		newp := Repartition(g, old, p)
		if err := partition.Check(newp, p); err != nil {
			t.Fatal(err)
		}
		before := partition.Imbalance(g, old, p)
		after := partition.Imbalance(g, newp, p)
		if after > before/2 && after > 0.1 {
			t.Errorf("p=%d: imbalance %v -> %v, insufficient", p, before, after)
		}
	}
}

func TestDiffusionMovesAlongBoundaries(t *testing.T) {
	// Every migrated vertex must have been adjacent to its destination part
	// at some point; at minimum, the result keeps parts connected enough
	// that the cut stays sane (not a random scatter).
	g, old := scenario(16, 4, 4)
	newp := Repartition(g, old, 4)
	cut := partition.EdgeCut(g, newp)
	scratch := mlkl.Partition(g, 4, mlkl.Config{Seed: 9})
	if cut > 4*partition.EdgeCut(g, scratch) {
		t.Errorf("diffusion cut %d wildly worse than scratch %d", cut, partition.EdgeCut(g, scratch))
	}
}

func TestDiffusionNoopWhenBalanced(t *testing.T) {
	m := meshgen.RectTri(12, 12, 0, 0, 1, 1)
	g := graph.FromDual(m)
	old := mlkl.Partition(g, 4, mlkl.Config{Seed: 3})
	newp := Repartition(g, old, 4)
	if mig := partition.MigrationCost(g.VW, old, newp); mig > g.TotalVW()/50 {
		t.Errorf("balanced start migrated %d", mig)
	}
}
