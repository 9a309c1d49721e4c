package experiments

import (
	"fmt"
	"io"

	"pared/internal/core"
	"pared/internal/partition"
)

// Ablation quantifies PNR's design choices (DESIGN.md §5) on a demanding
// repartition: the mesh doubles between two entries of the growth series
// (the excess weight is far above the flat-refinement threshold, so the
// full multilevel machinery engages), and each PNR variant rebalances from
// the smaller mesh's partition. Reported per variant: Equation-1 components.
func Ablation(w io.Writer, scale Scale) {
	c := DefaultGrowth(scale)
	if scale == Full {
		c.sizes = c.sizes[:3]
	}
	steps := GrowthSeries(c.m0, c.est, c.sizes, growthMaxLevel)
	if len(steps) < 2 {
		fmt.Fprintln(w, "ablation: series too short")
		return
	}
	// Measure across the size transition: balanced on the smaller mesh,
	// repartitioned on the doubled one.
	step := GrowthStep{Prev: steps[len(steps)-2].Next, Next: steps[len(steps)-1].Prev}
	p := 16
	if scale == Quick {
		p = 8
	}

	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"paper (a=0.1 b=0.8, same-part, 3 cycles)", core.Config{}},
		{"alpha=0 (no migration term)", core.Config{Alpha: 1e-12}},
		{"alpha=1.0 (migration-dominated)", core.Config{Alpha: 1.0}},
		{"beta weak (0.01)", core.Config{Beta: 0.01}},
		{"single V-cycle", core.Config{Cycles: 1}},
		{"unrestricted matching", core.Config{UnrestrictedMatching: true}},
	}
	var maxVW int64
	for _, w := range step.Next.G.VW {
		if w > maxVW {
			maxVW = w
		}
	}
	granularity := float64(maxVW) * float64(p) / float64(step.Next.G.TotalVW())
	t := &Table{
		Title: fmt.Sprintf("Ablation: PNR variants on a growth step (%d -> %d elements, p=%d; heaviest tree = %.2f of a part, the imbalance floor)",
			step.Prev.Leaf.Mesh.NumElems(), step.Next.Leaf.Mesh.NumElems(), p, granularity),
		Header: []string{"variant", "cut", "migrate", "mig%", "imbalance", "eq1 cost"},
	}
	base := core.Partition(step.Prev.G, p, core.Config{})
	base = core.Repartition(step.Prev.G, base, p, core.Config{})
	for _, v := range variants {
		newOwner := core.Repartition(step.Next.G, base, p, v.cfg)
		cut := partition.EdgeCut(step.Next.G, newOwner)
		mig := partition.MigrationCost(step.Next.G.VW, base, newOwner)
		imb := partition.Imbalance(step.Next.G, newOwner, p)
		cost := core.Cost(step.Next.G, base, newOwner, p, 0.1, 0.8)
		t.AddRow(v.name, cut, mig,
			fmt.Sprintf("%.2f", 100*float64(mig)/float64(step.Next.G.TotalVW())),
			fmt.Sprintf("%.4f", imb), fmt.Sprintf("%.0f", cost))
	}
	t.Fprint(w)
}
