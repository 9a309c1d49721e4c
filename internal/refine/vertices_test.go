package refine_test

import (
	"testing"

	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/meshgen"
	"pared/internal/refine"
)

// liveVertices counts the vertex slots that live nodes name.
func liveVertices(f *forest.Forest) int {
	used := make([]bool, len(f.Coords))
	live := 0
	for i := range f.Nodes {
		n := &f.Nodes[i]
		if n.Dead {
			continue
		}
		for _, v := range n.Verts {
			if v >= 0 && !used[v] {
				used[v] = true
				live++
			}
		}
	}
	return live
}

// TestSerialVertexTableStaysBounded runs the serial path of the §10
// experiments — the peak walking the diagonal in 40 steps, up to three
// AdaptOnce passes per step, coarsening below a quarter of the tolerance —
// and requires the vertex table never to hold more slots than vertices were
// live at once: coarsening frees what it orphans, and refinement takes the
// freed slots before it grows the table. Each pass is AdaptOnce's refinement
// and then its coarsening, so the live count is read at its peak in between.
func TestSerialVertexTableStaysBounded(t *testing.T) {
	const (
		steps    = 40
		tol      = 2e-2
		maxLevel = 12
	)
	f := forest.FromMesh(meshgen.RectTri(12, 12, -1, -1, 1, 1))
	r := refine.NewRefiner(f)
	peak := liveVertices(f)
	for step := 0; step < steps; step++ {
		est := fem.InterpolationEstimator(fem.TransientSolution(-0.5 + float64(step)/(steps-1)))
		for pass := 0; pass < 3; pass++ {
			res := refine.AdaptOnce(r, est, tol, 0, maxLevel)
			peak = max(peak, liveVertices(f))
			r.Coarsen(func(id forest.NodeID) bool { return est.Indicator(f, id) < tol/4 })
			if len(f.Coords) > peak {
				t.Fatalf("step %d pass %d: a vertex table of %d slots, at most %d vertices were ever live", step, pass, len(f.Coords), peak)
			}
			if res.Flagged == 0 {
				break
			}
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d vertex slots, %d live, peak %d", len(f.Coords), liveVertices(f), peak)
}
