package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pared/internal/meshgen"
)

// path builds a weighted path graph 0-1-2-...-n-1.
func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	return b.Build()
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 0, 3)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 0, 99) // self loop ignored
	g := b.Build()
	if g.M() != 2 {
		t.Errorf("edges = %d, want 2", g.M())
	}
	var w01 int64
	g.Neighbors(0, func(u int32, w int64) {
		if u == 1 {
			w01 = w
		}
	})
	if w01 != 5 {
		t.Errorf("w(0,1) = %d, want 5", w01)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejects hands Validate one hand-written CSR per structural
// defect it must refuse, and one valid graph whose row 0 lists neighbour 1
// twice: a row's repeated neighbours are summed before symmetry is checked.
func TestValidateRejects(t *testing.T) {
	csr := func(xadj, adj []int32, ew []int64, n int) *Graph {
		vw := make([]int64, n)
		for i := range vw {
			vw[i] = 1
		}
		return &Graph{Xadj: xadj, Adj: adj, EW: ew, VW: vw}
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		ok   bool
	}{
		{"Xadj too short", csr([]int32{0, 1}, []int32{1}, []int64{1}, 2), false},
		{"EW shorter than Adj", csr([]int32{0, 1, 2}, []int32{1, 0}, []int64{1}, 2), false},
		{"Xadj[n] != len(Adj)", csr([]int32{0, 1, 1}, []int32{1, 0}, []int64{1, 1}, 2), false},
		{"neighbour past n", csr([]int32{0, 1, 2}, []int32{2, 0}, []int64{1, 1}, 2), false},
		{"negative neighbour", csr([]int32{0, 1, 2}, []int32{1, -1}, []int64{1, 1}, 2), false},
		{"self-loop", csr([]int32{0, 2, 3}, []int32{1, 0, 0}, []int64{1, 1, 1}, 2), false},
		{"one-sided edge", csr([]int32{0, 2, 3, 3}, []int32{1, 2, 0}, []int64{1, 1, 1}, 3), false},
		{"one-sided edge of weight 0", csr([]int32{0, 1, 1}, []int32{1}, []int64{0}, 2), false},
		{"asymmetric weights", csr([]int32{0, 1, 2}, []int32{1, 0}, []int64{2, 3}, 2), false},
		{"repeated neighbour, sum differs", csr([]int32{0, 2, 3}, []int32{1, 1, 0}, []int64{1, 1, 1}, 2), false},
		{"valid path", path(4), true},
		{"valid, repeated neighbour", csr([]int32{0, 3, 4, 5}, []int32{1, 2, 1, 0, 0}, []int64{2, 4, 3, 5, 4}, 3), true},
	} {
		err := tc.g.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestFromDualStructured(t *testing.T) {
	m := meshgen.RectTri(3, 3, 0, 0, 1, 1)
	g := FromDual(m)
	if g.N() != m.NumElems() {
		t.Fatalf("n = %d, want %d", g.N(), m.NumElems())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Triangles have at most 3 dual neighbors.
	for v := int32(0); v < int32(g.N()); v++ {
		if g.Degree(v) > 3 {
			t.Fatalf("degree(%d) = %d > 3", v, g.Degree(v))
		}
	}
	if slices.Contains(g.BFS(0), -1) {
		t.Error("dual graph not connected")
	}
}

func TestBFSAndPeripheral(t *testing.T) {
	g := path(10)
	d := g.BFS(0)
	for i := range d {
		if d[i] != int32(i) {
			t.Fatalf("d[%d] = %d", i, d[i])
		}
	}
	pp := g.PseudoPeripheral(5)
	if pp != 0 && pp != 9 {
		t.Errorf("pseudo-peripheral = %d, want an endpoint", pp)
	}
}

func TestMatchingIsMatching(t *testing.T) {
	f := func(seed int64) bool {
		m := meshgen.RectTri(6, 6, 0, 0, 1, 1)
		g := FromDual(m)
		match := HeavyEdgeMatching(g, seed, nil)
		for v := int32(0); v < int32(g.N()); v++ {
			mv := match[v]
			if mv < 0 || int(mv) >= g.N() {
				return false
			}
			if match[mv] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMatchingRespectsAllow(t *testing.T) {
	m := meshgen.RectTri(6, 6, 0, 0, 1, 1)
	g := FromDual(m)
	side := make([]int32, g.N())
	for i := range side {
		side[i] = int32(i % 2)
	}
	match := HeavyEdgeMatching(g, 1, func(u, v int32) bool { return side[u] == side[v] })
	for v := int32(0); v < int32(g.N()); v++ {
		if match[v] != v && side[match[v]] != side[v] {
			t.Fatalf("matched across sides: %d-%d", v, match[v])
		}
	}
}

func TestContractConservesWeight(t *testing.T) {
	m := meshgen.RectTri(8, 8, 0, 0, 1, 1)
	g := FromDual(m)
	rng := rand.New(rand.NewSource(2))
	for i := range g.VW {
		g.VW[i] = int64(1 + rng.Intn(5))
	}
	match := HeavyEdgeMatching(g, 3, nil)
	cg, f2c := Contract(g, match)
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cg.TotalVW() != g.TotalVW() {
		t.Errorf("total vertex weight %d != %d", cg.TotalVW(), g.TotalVW())
	}
	if cg.N() >= g.N() {
		t.Errorf("contraction did not shrink: %d -> %d", g.N(), cg.N())
	}
	// Edge weight across any coarse cut >= nothing lost: total boundary
	// weight between two coarse vertices equals sum of fine edges between
	// their preimages.
	var fineCross, coarseTotal int64
	for v := int32(0); v < int32(g.N()); v++ {
		g.Neighbors(v, func(u int32, w int64) {
			if v < u && f2c[v] != f2c[u] {
				fineCross += w
			}
		})
	}
	for v := int32(0); v < int32(cg.N()); v++ {
		cg.Neighbors(v, func(u int32, w int64) {
			if v < u {
				coarseTotal += w
			}
		})
	}
	if fineCross != coarseTotal {
		t.Errorf("cross weight %d != coarse total %d", fineCross, coarseTotal)
	}
}

func TestCoarseDualWeights(t *testing.T) {
	// Two coarse triangles; pretend one was refined into 3 leaves.
	coarse := meshgen.RectTri(1, 1, 0, 0, 1, 1)
	// Fake a leaf mesh: reuse the coarse mesh but with leafRoot mapping both
	// elements to distinct roots; weights then are 1 each, edge weight 1.
	g := CoarseDual(coarse.NumElems(), coarse, []int32{0, 1})
	if g.VW[0] != 1 || g.VW[1] != 1 {
		t.Errorf("weights = %v", g.VW)
	}
	if g.M() != 1 {
		t.Errorf("edges = %d, want 1", g.M())
	}
	// Now a refined leaf mesh: 4x4 grid, roots assigned by left/right half.
	fine := meshgen.RectTri(4, 4, 0, 0, 1, 1)
	leafRoot := make([]int32, fine.NumElems())
	for e := range leafRoot {
		if fine.Centroid(e).X > 0.5 {
			leafRoot[e] = 1
		}
	}
	g2 := CoarseDual(2, fine, leafRoot)
	if g2.VW[0]+g2.VW[1] != int64(fine.NumElems()) {
		t.Errorf("weights %v don't sum to %d", g2.VW, fine.NumElems())
	}
	// Edge weight = number of facet-adjacent leaf pairs across the halves =
	// number of edges on the x=0.5 line = 4.
	var w int64
	g2.Neighbors(0, func(u int32, ww int64) {
		if u == 1 {
			w = ww
		}
	})
	if w != 4 {
		t.Errorf("cross edge weight = %d, want 4", w)
	}
}

func TestProcGraphGrid(t *testing.T) {
	// 4 parts arranged in a 2x2 block layout over a grid mesh: H is a 4-cycle
	// (diagonal blocks share no facet).
	m := meshgen.RectTri(8, 8, 0, 0, 1, 1)
	g := FromDual(m)
	parts := make([]int32, g.N())
	for e := range parts {
		c := m.Centroid(e)
		p := int32(0)
		if c.X > 0.5 {
			p++
		}
		if c.Y > 0.5 {
			p += 2
		}
		parts[e] = p
	}
	h := ProcGraph(g, parts, 4)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	deg := []int{h.Degree(0), h.Degree(1), h.Degree(2), h.Degree(3)}
	for i, d := range deg {
		if d < 2 || d > 3 {
			t.Errorf("H degree(%d) = %d, want 2 or 3 (2x2 blocks)", i, d)
		}
	}
	dists := h.AllPairsBFS()
	if dists[0][3] < 1 || dists[0][3] > 2 {
		t.Errorf("d(0,3) = %d", dists[0][3])
	}
}

func TestSubgraph(t *testing.T) {
	g := path(6)
	sg, orig := g.Subgraph([]int32{1, 2, 3})
	if sg.N() != 3 || sg.M() != 2 {
		t.Fatalf("subgraph n=%d m=%d", sg.N(), sg.M())
	}
	if orig[0] != 1 || orig[2] != 3 {
		t.Errorf("orig = %v", orig)
	}
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLaplacianRowSums(t *testing.T) {
	m := meshgen.RectTri(4, 4, 0, 0, 1, 1)
	g := FromDual(m)
	lap := g.Laplacian()
	ones := make([]float64, lap.N)
	for i := range ones {
		ones[i] = 1
	}
	out := make([]float64, lap.N)
	lap.MulVec(out, ones)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("row %d sums to %g", i, v)
		}
	}
}
