package experiments

import (
	"fmt"
	"io"
	"math"

	"pared/internal/core"
	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/meshgen"
	"pared/internal/partition"
	"pared/internal/partition/rsb"
	"pared/internal/refine"
)

// transient3DSolution is a 3D moving peak analogous to §10's 2D one: height
// 1 at (−t,−t,−t), sliding along the main diagonal of (−1,1)³.
func transient3DSolution(t float64) func(geom.Vec3) float64 {
	return func(p geom.Vec3) float64 {
		dx, dy, dz := p.X+t, p.Y+t, p.Z+t
		return 1 / (1 + 100*(dx*dx+dy*dy+dz*dz))
	}
}

// Transient3D extends the §10 tracking study to three dimensions (the paper
// reports its migration comparisons "are similar" in 3D): a peak moves along
// the cube diagonal with refinement ahead and coarsening behind; per-step
// migration is compared for permuted RSB and PNR.
func Transient3D(w io.Writer, scale Scale) {
	gridN, steps, tol, procs := 6, 8, 3e-2, []int{4, 8}
	if scale == Full {
		gridN, steps, tol, procs = 10, 30, 1.2e-2, []int{4, 8, 16}
	}
	m0 := meshgen.BoxTet(gridN, gridN, gridN, -1, -1, -1, 1, 1, 1)
	f := forest.FromMesh(m0)
	r := refine.NewRefiner(f)

	t := &Table{
		Title:  fmt.Sprintf("§10 in 3D: per-step migrated fraction, permuted RSB vs PNR (%d steps)", steps),
		Header: []string{"procs", "elems(final)", "permRSB avg%", "permRSB peak%", "PNR avg%", "PNR peak%", "sharedV RSB", "sharedV PNR"},
	}
	type state struct {
		rsbParts []int32
		owner    []int32
	}
	states := make(map[int]*state)
	type agg struct {
		sumRSB, peakRSB, sumPNR, peakPNR float64
		shRSB, shPNR                     float64
		n                                int
	}
	aggs := make(map[int]*agg)
	for _, p := range procs {
		states[p] = &state{}
		aggs[p] = &agg{}
	}
	var prev *Snapshot
	var finalElems int
	for step := 0; step < steps; step++ {
		tt := -0.5 + float64(step)/float64(max(steps-1, 1))
		est := fem.InterpolationEstimator(transient3DSolution(tt))
		for pass := 0; pass < 3; pass++ {
			if res := refine.AdaptOnce(r, est, tol, tol/4, 10); res.Flagged == 0 {
				break
			}
		}
		cur := takeSnapshot(f, m0.NumElems(), nil)
		finalElems = cur.Leaf.Mesh.NumElems()
		var inherit []int32
		if prev != nil {
			inherit = InheritByLocation(prev, cur)
		}
		for _, p := range procs {
			st, a := states[p], aggs[p]
			newRSB := rsb.Partition(cur.Fine, p, rsb.Config{Seed: 23})
			if prev != nil {
				inh := inheritParts(st.rsbParts, inherit)
				adopted := partition.MinMigrationRelabel(cur.Fine.VW, inh, newRSB, p)
				mig := partition.MigrationCost(cur.Fine.VW, inh, adopted)
				fr := 100 * float64(mig) / float64(finalElems)
				a.sumRSB += fr
				a.peakRSB = math.Max(a.peakRSB, fr)
				newRSB = adopted
			}
			st.rsbParts = newRSB

			migPNR := int64(0)
			if st.owner == nil {
				st.owner = core.Partition(cur.G, p, core.Config{})
				st.owner = core.Repartition(cur.G, st.owner, p, core.Config{})
			} else {
				no := core.Repartition(cur.G, st.owner, p, core.Config{})
				migPNR = partition.MigrationCost(cur.G.VW, st.owner, no)
				st.owner = no
			}
			if prev != nil {
				fp := 100 * float64(migPNR) / float64(finalElems)
				a.sumPNR += fp
				a.peakPNR = math.Max(a.peakPNR, fp)
				a.n++
			}
			a.shRSB += float64(cur.Leaf.Mesh.SharedVertices(newRSB))
			a.shPNR += float64(cur.Leaf.Mesh.SharedVertices(cur.RootParts(st.owner)))
		}
		prev = cur
	}
	for _, p := range procs {
		a := aggs[p]
		n := float64(max(a.n, 1))
		s := float64(steps)
		t.AddRow(p, finalElems,
			fmt.Sprintf("%.1f", a.sumRSB/n), fmt.Sprintf("%.1f", a.peakRSB),
			fmt.Sprintf("%.1f", a.sumPNR/n), fmt.Sprintf("%.1f", a.peakPNR),
			fmt.Sprintf("%.0f", a.shRSB/s), fmt.Sprintf("%.0f", a.shPNR/s))
	}
	t.Fprint(w)
}
