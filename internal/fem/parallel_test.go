package fem

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"pared/internal/geom"
	"pared/internal/mesh"
	"pared/internal/meshgen"
)

func withProcs(t *testing.T, procs int, f func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	f()
}

// TestSolveBitIdenticalAcrossRunsAndGOMAXPROCS pins fem.Solve — parallel
// assembly, Dirichlet elimination, the CG solve on la's kern kernels — to
// the same bits on every run and for GOMAXPROCS ∈ {1, 2, 8}, in 2D and 3D.
// The meshes span many assembly chunks and more than one Dot chunk, so a
// scheduling-dependent write or sum shows up here, and so does a float sum
// taken in map order (repeated runs see different orders).
func TestSolveBitIdenticalAcrossRunsAndGOMAXPROCS(t *testing.T) {
	src := func(p geom.Vec3) float64 { return 1 + p.X*p.Y - p.Z }
	g := func(p geom.Vec3) float64 { return math.Sin(3*p.X) + p.Y*p.Y - 0.5*p.Z }
	for _, m := range []*mesh.Mesh{
		meshgen.RectTri(70, 70, -1, -1, 1, 1),     // 9 800 triangles, 5 041 vertices
		meshgen.BoxTet(9, 9, 9, 0, 0, 0, 1, 1, 1), // 4 374 tetrahedra
	} {
		solve := func() []float64 {
			sol, err := Solve(Problem{Mesh: m, Source: src, G: g}, 1e-10, 5000)
			if err != nil {
				t.Fatal(err)
			}
			return sol.U
		}
		var ref []float64
		withProcs(t, 1, func() { ref = solve() })
		for _, procs := range []int{1, 2, 8} {
			withProcs(t, procs, func() {
				for rep := 0; rep < 2; rep++ {
					got := solve()
					for i := range ref {
						if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
							t.Fatalf("%dD, GOMAXPROCS=%d, run %d: u[%d] = %v, want %v", m.Dim, procs, rep, i, got[i], ref[i])
						}
					}
				}
			})
		}
	}
}

// TestAssembleLaplacePanicsAtFirstDegenerateElement: with degenerate
// elements in several assembly chunks, the panic names the first one in
// element order for any worker count.
func TestAssembleLaplacePanicsAtFirstDegenerateElement(t *testing.T) {
	m := meshgen.RectTri(20, 20, 0, 0, 1, 1) // 800 triangles: 4 chunks
	for _, e := range []int{310, 790, 600} {
		m.Elems[e].V[2] = m.Elems[e].V[1] // zero area
	}
	want := fmt.Sprintf("fem: degenerate element %d", 310)
	for _, procs := range []int{1, 2, 8} {
		withProcs(t, procs, func() {
			for rep := 0; rep < 5; rep++ {
				func() {
					defer func() {
						if r := recover(); r != want {
							t.Fatalf("GOMAXPROCS=%d: panic %v, want %q", procs, r, want)
						}
					}()
					AssembleLaplace(m)
				}()
			}
		})
	}
}
