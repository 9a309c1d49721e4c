package core

import (
	"pared/internal/graph"
	"pared/internal/mesh"
	"pared/internal/meshgen"
	"testing"
)

// Determinism is a correctness property here, not a nicety: the paper's
// tables only reproduce if PNR emits byte-identical partition vectors run to
// run (see also nomap_test.go at the module root, which keeps Go maps out of
// the code paths these tests pin down).

func dualOfRect(nx, ny int) (*graph.Graph, *mesh.Mesh) {
	m := meshgen.RectTri(nx, ny, -1, -1, 1, 1)
	return graph.FromDual(m), m
}

func samePartition(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPartitionByteIdenticalAcrossRuns(t *testing.T) {
	g, _ := dualOfRect(24, 24)
	cfg := Config{Seed: 7}
	first := Partition(g, 8, cfg)
	for run := 0; run < 3; run++ {
		again := Partition(g, 8, cfg)
		if !samePartition(first, again) {
			t.Fatal("Partition differs between identical runs")
		}
	}
}

func TestRepartitionByteIdenticalAcrossRuns(t *testing.T) {
	g, _ := dualOfRect(24, 24)
	old := Partition(g, 8, Config{Seed: 3})
	// Perturb vertex weights the way adaptation does (some elements refined
	// more than others) so the repartition has real work to do.
	b := graph.NewBuilder(g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		w := int64(1 + int(v)%5)
		b.SetVW(v, w)
		g.Neighbors(v, func(u int32, ew int64) {
			if u > v {
				b.AddEdge(v, u, ew)
			}
		})
	}
	gw := b.Build()
	cfg := Config{Seed: 3}
	first := Repartition(gw, old, 8, cfg)
	for run := 0; run < 3; run++ {
		again := Repartition(gw, old, 8, cfg)
		if !samePartition(first, again) {
			t.Fatal("Repartition differs between identical runs")
		}
	}
}
