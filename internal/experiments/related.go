package experiments

import (
	"fmt"
	"io"

	"pared/internal/core"
	"pared/internal/geom"
	"pared/internal/partition"
	"pared/internal/partition/diffusion"
	"pared/internal/partition/geometric"
	"pared/internal/partition/mlkl"
	"pared/internal/partition/rsb"
)

// GeoComparison reproduces §3.1's ranking of partitioner families on the
// adapted corner meshes: "geometric heuristics are scalable but produce
// worse partitions than spectral methods" ([22]). Reported: shared vertices
// for RCB, inertial, RSB and Multilevel-KL at several processor counts.
func GeoComparison(w io.Writer, scale Scale) {
	c := fig1Cases(scale)[0]
	snaps := AdaptSeries(c.m0, c.est, c.tol, c.maxLevel, c.maxPass)
	s := snaps[len(snaps)-1]
	procs := []int{4, 16, 64}
	if scale == Quick {
		procs = []int{4, 8}
	}
	coords := make([]geom.Vec3, s.Leaf.Mesh.NumElems())
	for e := range coords {
		coords[e] = s.Leaf.Mesh.Centroid(e)
	}
	t := &Table{
		Title:  fmt.Sprintf("§3.1 partitioner families on the adapted corner mesh (%d elements): shared vertices", s.Leaf.Mesh.NumElems()),
		Header: []string{"procs", "RCB", "inertial", "RSB", "ML-KL"},
	}
	for _, p := range procs {
		rcb := geometric.Partition(s.Fine, coords, p, geometric.RCB)
		inr := geometric.Partition(s.Fine, coords, p, geometric.Inertial)
		spc := rsb.Partition(s.Fine, p, rsb.Config{Seed: 2})
		kl := mlkl.Partition(s.Fine, p, mlkl.Config{Seed: 2})
		t.AddRow(p,
			s.Leaf.Mesh.SharedVertices(rcb),
			s.Leaf.Mesh.SharedVertices(inr),
			s.Leaf.Mesh.SharedVertices(spc),
			s.Leaf.Mesh.SharedVertices(kl))
	}
	t.Fprint(w)
}

// DiffusionComparison pits PNR against the diffusive repartitioning family
// of the paper's references [6, 7] (flow from Hu–Blake, migration from
// subdomain boundaries) on the Figure-5 growth workload, both running on the
// same coarse graph. The paper's critique of diffusion — repeated migration
// of the same regions across iterations — shows up as a higher cumulative
// movement for comparable balance.
func DiffusionComparison(w io.Writer, scale Scale) {
	c := DefaultGrowth(scale)
	procs := []int{4, 8} // p=16 on the tiny quick meshes hits tree-weight granularity
	if scale == Full {
		c.sizes = c.sizes[:4]
		procs = []int{8, 32}
	}
	steps := GrowthSeries(c.m0, c.est, c.sizes, growthMaxLevel)
	t := &Table{
		Title:  "PNR vs diffusive repartitioning (refs [6,7]) on the growth workload",
		Header: []string{"procs", "elems(t)", "PNR mig", "PNR cut", "PNR imb", "diff mig", "diff cut", "diff imb"},
	}
	for _, step := range steps {
		for _, p := range procs {
			base := core.Partition(step.Prev.G, p, core.Config{})
			base = core.Repartition(step.Prev.G, base, p, core.Config{})

			pnr := core.Repartition(step.Next.G, base, p, core.Config{})
			dif := diffusion.Repartition(step.Next.G, base, p)
			t.AddRow(p, step.Next.Leaf.Mesh.NumElems(),
				partition.MigrationCost(step.Next.G.VW, base, pnr),
				partition.EdgeCut(step.Next.G, pnr),
				fmt.Sprintf("%.3f", partition.Imbalance(step.Next.G, pnr, p)),
				partition.MigrationCost(step.Next.G.VW, base, dif),
				partition.EdgeCut(step.Next.G, dif),
				fmt.Sprintf("%.3f", partition.Imbalance(step.Next.G, dif, p)))
		}
	}
	t.Fprint(w)

	// Chained variant: the §1 critique — diffusion migrates the same regions
	// again and again — shows in cumulative behaviour. Each method carries
	// its own assignment through every rebalance of the whole series
	// (including the large between-size transitions) with no fresh
	// partitions.
	t2 := &Table{
		Title:  "Chained across the whole series: cumulative migration and final quality",
		Header: []string{"procs", "PNR cum-mig", "PNR final cut", "diff cum-mig", "diff final cut", "final elems"},
	}
	for _, p := range procs {
		var ownerP, ownerD []int32
		var cumP, cumD int64
		var finalElems int
		for _, step := range steps {
			for _, s := range []*Snapshot{step.Prev, step.Next} {
				if ownerP == nil {
					ownerP = core.Partition(s.G, p, core.Config{})
					ownerD = append([]int32(nil), ownerP...)
					continue
				}
				np := core.Repartition(s.G, ownerP, p, core.Config{})
				cumP += partition.MigrationCost(s.G.VW, ownerP, np)
				ownerP = np
				nd := diffusion.Repartition(s.G, ownerD, p)
				cumD += partition.MigrationCost(s.G.VW, ownerD, nd)
				ownerD = nd
				finalElems = s.Leaf.Mesh.NumElems()
			}
		}
		last := steps[len(steps)-1].Next
		t2.AddRow(p, cumP, partition.EdgeCut(last.G, ownerP),
			cumD, partition.EdgeCut(last.G, ownerD), finalElems)
	}
	t2.Fprint(w)
}
