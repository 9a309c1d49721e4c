package pared

import (
	"testing"

	"pared/internal/core"
	"pared/internal/graph"
)

// TestEngineDistRefineMatchesCoordinator is the engine-level byte-identity
// contract of Config.DistRefine: a 10-epoch adapt/rebalance chain through
// the replicated strategy (every rank patches its own graph copy and enters
// the collective repartition) must reproduce the coordinator strategy
// running the identical sweep serially on rank 0 through the single-rank
// core.Serial exchanger — same owner maps, cuts and migration counts every
// epoch. And it must land on the from-scratch reference running that serial
// sweep, the same oracle the incremental pipeline answers to.
func TestEngineDistRefineMatchesCoordinator(t *testing.T) {
	const p = 4
	pnr := core.Config{DistRefine: core.Serial}
	coordinator := Config{Repartition: func(g *graph.Graph, old []int32, np int) []int32 {
		return core.Repartition(g, old, np, pnr)
	}}
	dist, distLeaves := runChain(t, p, Config{DistRefine: true})
	ref, refLeaves := runChain(t, p, coordinator)
	compareChains(t, "distrefine vs coordinator", dist, ref)
	if len(distLeaves) != len(refLeaves) {
		t.Fatalf("final leaf counts differ: %d vs %d", len(distLeaves), len(refLeaves))
	}
	for i := range distLeaves {
		if distLeaves[i] != refLeaves[i] {
			t.Fatalf("final leaf %d differs", i)
		}
	}
	ran := 0
	for _, r := range dist {
		if r.Ran {
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no epoch actually rebalanced; the comparison proved nothing")
	}

	runChainOracle(t, p, Config{DistRefine: true}, &core.Config{DistRefine: core.Serial})
}
