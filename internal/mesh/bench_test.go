package mesh

import (
	"io"
	"testing"

	"pared/internal/geom"
)

// gridMesh builds an n×n right-triangle mesh without importing meshgen
// (which would cycle).
func gridMesh(n int) *Mesh {
	m := &Mesh{Dim: D2}
	id := func(i, j int) int32 { return int32(i*(n+1) + j) }
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			m.Verts = append(m.Verts, geom.Vec3{X: float64(j) / float64(n), Y: float64(i) / float64(n)})
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b, c, d := id(i, j), id(i, j+1), id(i+1, j+1), id(i+1, j)
			m.Elems = append(m.Elems, Tri(a, b, c), Tri(a, c, d))
		}
	}
	return m
}

func gridParts(m *Mesh, p int) []int32 {
	parts := make([]int32, m.NumElems())
	for e := range parts {
		parts[e] = int32(e % p)
	}
	return parts
}

func BenchmarkWriteSVG(b *testing.B) {
	m := gridMesh(100)
	parts := gridParts(m, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteSVG(io.Discard, parts, 900); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFacetAdjacency(b *testing.B) {
	m := gridMesh(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.InteriorFacetPairs()
	}
}

func BenchmarkSharedVertices(b *testing.B) {
	m := gridMesh(100)
	parts := gridParts(m, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.SharedVertices(parts)
	}
}
