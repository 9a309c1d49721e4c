package core

import (
	"testing"

	"pared/internal/graph"
	"pared/internal/meshgen"
	"pared/internal/partition/mlkl"
)

// heavyHalfScenario builds a coarse dual graph plus an assignment whose
// imbalance is large enough to put Repartition on the multilevel path.
func heavyHalfScenario(n, p int) (*graph.Graph, []int32) {
	m := meshgen.RectTri(n, n, -1, -1, 1, 1)
	g := graph.FromDual(m)
	old := mlkl.Partition(g, p, mlkl.Config{Seed: 11})
	for v := range g.VW {
		if m.Centroid(v).X > 0 {
			g.VW[v] *= 6 // heavy half ⇒ excess well above the 15% flat cutoff
		}
	}
	return g, old
}

// TestRepartitionKeepsNoState: the same (g, old, p, cfg) returns the identical
// vector after unrelated calls on other graphs, weights and part counts — on
// the flat and on the multilevel path, under the serial sweeps and the
// distributed one.
func TestRepartitionKeepsNoState(t *testing.T) {
	const p = 4
	flatG, flatOld := refinedScenario(16, p, 2)
	mlG, mlOld := heavyHalfScenario(20, p)
	if !runsFlat(flatG, flatOld, p) || runsFlat(mlG, mlOld, p) {
		t.Fatal("fixtures no longer cover one path each")
	}
	otherG, otherOld := heavyHalfScenario(12, 8)
	for name, cfg := range map[string]Config{"serial": {}, "distrefine": {DistRefine: Serial}} {
		for _, sc := range []struct {
			path string
			g    *graph.Graph
			old  []int32
		}{{"flat", flatG, flatOld}, {"multilevel", mlG, mlOld}} {
			want := Repartition(sc.g, sc.old, p, cfg)
			// Another graph and part count; this graph cut into twice the
			// parts (p-part labels are a legal, lopsided 2p-part assignment);
			// this graph under slightly different weights.
			Repartition(otherG, otherOld, 8, cfg)
			Repartition(sc.g, sc.old, 2*p, cfg)
			drifted := &graph.Graph{Xadj: sc.g.Xadj, Adj: sc.g.Adj, EW: sc.g.EW, VW: append([]int64(nil), sc.g.VW...)}
			for v := range drifted.VW {
				drifted.VW[v] += int64(v % 3)
			}
			Repartition(drifted, sc.old, p, cfg)
			if got := Repartition(sc.g, sc.old, p, cfg); !samePartition(got, want) {
				t.Errorf("%s, %s path: result changed after unrelated calls", name, sc.path)
			}
		}
	}
}
