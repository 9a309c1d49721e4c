package pared

import (
	"testing"

	"pared/internal/core"
	"pared/internal/geom"
	"pared/internal/graph"
	"pared/internal/meshgen"
	"pared/internal/par"
)

// TestPipelineByteIdenticalAcrossRuns runs the complete distributed pipeline
// — bootstrap, adaptive refinement with cross-rank conformity, and PNR
// rebalancing — twice on the same workload and requires byte-identical owner
// vectors. This is the regression test for the determinism work that
// nomap_test.go at the module root enforces structurally: goroutine
// scheduling and map iteration order must not leak into partition decisions.
func TestPipelineByteIdenticalAcrossRuns(t *testing.T) {
	run := func() []int32 {
		m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
		est := cornerEst(geom.Vec3{X: 1, Y: 1})
		var owner []int32
		err := par.Run(4, func(c *par.Comm) {
			e := Bootstrap(c, m)
			e.SetConfig(Config{
				Repartition: func(g *graph.Graph, old []int32, np int) []int32 {
					return core.Repartition(g, old, np, core.Config{Seed: 11})
				},
				ImbalanceTrigger: 0.05,
			})
			for step := 0; step < 3; step++ {
				e.Adapt(est, 0.8, 0, 8)
				e.Rebalance(true)
			}
			if c.Rank() == 0 {
				owner = append([]int32(nil), e.Owner...)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return owner
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("no owner vector captured")
	}
	for attempt := 0; attempt < 3; attempt++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("owner vector length changed between runs: %d vs %d", len(first), len(again))
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("owner vectors differ at coarse element %d between identical runs", i)
			}
		}
	}
}
