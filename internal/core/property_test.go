package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pared/internal/graph"
	"pared/internal/meshgen"
	"pared/internal/partition"
)

// TestPropertyRepartitionAlwaysValid: for random weight perturbations and
// random (even degenerate) starting assignments, Repartition returns a valid
// partition whose Equation-1 cost does not exceed the starting assignment's.
func TestPropertyRepartitionAlwaysValid(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := meshgen.RectTri(8+rng.Intn(6), 8+rng.Intn(6), -1, -1, 1, 1)
		g := graph.FromDual(m)
		for v := range g.VW {
			g.VW[v] = int64(1 + rng.Intn(9))
		}
		p := 2 + rng.Intn(7)
		old := make([]int32, g.N())
		for v := range old {
			old[v] = int32(rng.Intn(p))
		}
		cfg := Config{Seed: seed}.withDefaults()
		newp := Repartition(g, old, p, cfg)
		if partition.Check(newp, p) != nil {
			return false
		}
		before := Cost(g, old, old, p, cfg.Alpha, cfg.Beta)
		after := Cost(g, old, newp, p, cfg.Alpha, cfg.Beta)
		return after <= before+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCutNeverWorseWithPureCutGain: with α = β ≈ 0 the KL refinement
// must never increase the cut relative to the start.
func TestPropertyCutNeverWorseWithPureCutGain(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.FromDual(meshgen.RectTri(10, 10, 0, 0, 1, 1))
		p := 2 + rng.Intn(4)
		// A balanced-ish start, refined by refineKL alone: Repartition would
		// follow it with the forced-balance and hard-limit phases, and the
		// property is about the KL refinement, which must be cut-monotone
		// when the gain is pure cut.
		old := make([]int32, g.N())
		for v := range old {
			old[v] = int32(v * p / g.N())
		}
		parts := append([]int32(nil), old...)
		refineKL(nil, g, parts, old, p, Config{Alpha: 1e-12, Beta: 1e-12})
		return partition.EdgeCut(g, parts) <= partition.EdgeCut(g, old)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
