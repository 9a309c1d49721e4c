package experiments

import (
	"fmt"
	"io"
	"path/filepath"

	"pared/internal/core"
	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/mesh"
	"pared/internal/meshgen"
	"pared/internal/partition"
	"pared/internal/partition/mlkl"
	"pared/internal/partition/rsb"
	"pared/internal/partition/sfc"
	"pared/internal/refine"
)

// TransientConfig is one case of the §10 moving-peak study: the coarse mesh,
// the peak moving across it and the RSB seed are fixed by the constructor
// (DefaultTransient in 2D, DefaultTransient3D in 3D); the exported fields
// size the run.
type TransientConfig struct {
	Steps     int     // time steps from t = −0.5 to 0.5
	Tol       float64 // refine tolerance (coarsen at Tol/4)
	MaxLevel  int32
	Procs     []int
	SVGDir    string // if set, render meshes at the first and last steps
	EveryStep bool   // emit per-step rows (Figures 7/8) vs summary only

	m0      *mesh.Mesh
	peak    func(t float64) func(geom.Vec3) float64
	rsbSeed int64
}

// DefaultTransient returns the paper's 2D case at the given scale.
func DefaultTransient(scale Scale) TransientConfig {
	gridN, cfg := 12, TransientConfig{Steps: 10, Tol: 2e-2, MaxLevel: 12, Procs: []int{4, 8}}
	if scale == Full {
		gridN, cfg = 40, TransientConfig{Steps: 100, Tol: 4e-3, MaxLevel: 20, Procs: []int{4, 8, 16, 32}, EveryStep: true}
	}
	cfg.m0, cfg.peak, cfg.rsbSeed = meshgen.RectTri(gridN, gridN, -1, -1, 1, 1), fem.TransientSolution, 17
	return cfg
}

// DefaultTransient3D returns the study in three dimensions (the paper reports
// its migration comparisons "are similar" in 3D): a peak sliding along the
// diagonal of a tetrahedral box.
func DefaultTransient3D(scale Scale) TransientConfig {
	gridN, cfg := 6, TransientConfig{Steps: 8, Tol: 3e-2, MaxLevel: 10, Procs: []int{4, 8}}
	if scale == Full {
		gridN, cfg = 10, TransientConfig{Steps: 30, Tol: 1.2e-2, MaxLevel: 10, Procs: []int{4, 8, 16}}
	}
	cfg.m0, cfg.peak, cfg.rsbSeed = meshgen.BoxTet(gridN, gridN, gridN, -1, -1, -1, 1, 1, 1), transient3DSolution, 23
	return cfg
}

// transient3DSolution is a 3D moving peak analogous to §10's 2D one: height
// 1 at (−t,−t,−t), sliding along the main diagonal of (−1,1)³.
func transient3DSolution(t float64) func(geom.Vec3) float64 {
	return func(p geom.Vec3) float64 {
		dx, dy, dz := p.X+t, p.Y+t, p.Z+t
		return 1 / (1 + 100*(dx*dx+dy*dy+dz*dz))
	}
}

// dimTag labels a table of a 3D case; 2D tables carry the paper's titles.
func dimTag(m0 *mesh.Mesh) string {
	if m0.Dim == mesh.D3 {
		return " (3D)"
	}
	return ""
}

// The methods of the study, in Figure 8's column order.
const (
	methRSB = iota
	methPerm
	methPNR
	methSFC
	methMLKL
	numMethods
)

// transientState is one processor count's assignments and running sums.
type transientState struct {
	rsb, perm            []int32             // per leaf element: RSB from scratch, permuted RSB
	pnr, sfc, mlkl       []int32             // per coarse root
	sum, peak            [numMethods]float64 // migrated % by method: sum and maximum
	n                    int                 // steps that had a previous one
	sharedRSB, sharedPNR float64
	adjRSB, adjPNR       float64
	discRSB, discPNR     int
}

// TransientResult aggregates Figures 7 and 8.
type TransientResult struct {
	Fig7, Fig8, Summary *Table
}

// Transient reproduces the §10 experiment: a peak moving along the diagonal
// for 100 steps with refinement ahead of it and coarsening behind. At every
// step the mesh is repartitioned by (a) RSB from scratch, (b) RSB followed by
// the migration-minimizing permutation, (c) PNR, (d) SFC Hilbert bands with
// snapping, and (e) direct ML-KL (relabeled for minimum migration). Figure 7
// reports the shared-vertex quality of RSB vs PNR; Figure 8 the elements
// migrated by every method; the summary adds the SFC and ML-KL migrated
// fractions next to the paper's three columns.
func Transient(w io.Writer, cfg TransientConfig) *TransientResult {
	m0, tag := cfg.m0, dimTag(cfg.m0)
	f := forest.FromMesh(m0)
	r := refine.NewRefiner(f)

	res := &TransientResult{
		Fig7:    &Table{Title: "Figure 7" + tag + ": shared vertices per step (RSB vs PNR)", Header: []string{"step", "t", "elems"}},
		Fig8:    &Table{Title: "Figure 8" + tag + ": elements migrated per step (RSB, permuted RSB, PNR, SFC, ML-KL)", Header: []string{"step", "t", "elems"}},
		Summary: &Table{Title: "Section 10 summary" + tag + ": average (peak) migrated fraction, %", Header: []string{"procs", "RSB", "permRSB", "PNR", "SFC", "MLKL", "sharedV RSB", "sharedV PNR", "adjSub RSB", "adjSub PNR", "disc RSB", "disc PNR"}},
	}
	for _, p := range cfg.Procs {
		res.Fig7.Header = append(res.Fig7.Header, fmt.Sprintf("RSB:%d", p), fmt.Sprintf("PNR:%d", p))
		res.Fig8.Header = append(res.Fig8.Header, fmt.Sprintf("RSB:%d", p), fmt.Sprintf("perm:%d", p),
			fmt.Sprintf("PNR:%d", p), fmt.Sprintf("SFC:%d", p), fmt.Sprintf("MLKL:%d", p))
	}

	rsbCfg := rsb.Config{Seed: cfg.rsbSeed}
	states := make([]transientState, len(cfg.Procs)) // by position in cfg.Procs
	// The SFC methods partition the coarse graph, whose vertex set is the
	// invariant root set of m0: the curve order is computed once.
	sfcKeys := sfc.Keys(m0, sfc.Hilbert)
	sfcOrder, _ := sfc.Order(sfcKeys)
	var sfcScratch sfc.AssignScratch

	var prevSnap *Snapshot
	for step := 0; step < cfg.Steps; step++ {
		tt := -0.5 + float64(step)/float64(max(cfg.Steps-1, 1))
		est := fem.InterpolationEstimator(cfg.peak(tt))
		// Let the mesh settle on the new peak position (a few passes, since
		// the peak moves a fraction of its width per step).
		for pass := 0; pass < 3; pass++ {
			res := refine.AdaptOnce(r, est, cfg.Tol, cfg.Tol/4, cfg.MaxLevel)
			if res.Flagged == 0 {
				break
			}
		}
		cur := takeSnapshot(f, m0.NumElems(), nil)
		var inherit []int32
		if prevSnap != nil {
			inherit = InheritByLocation(prevSnap, cur)
		}
		nElems := cur.Leaf.Mesh.NumElems()
		row7 := []any{step, fmt.Sprintf("%.2f", tt), nElems}
		row8 := []any{step, fmt.Sprintf("%.2f", tt), nElems}
		for i, p := range cfg.Procs {
			st := &states[i]
			var mig [numMethods]int64
			// Fresh RSB partition of the current fine mesh (identical for
			// both RSB variants; they differ only in adopted labels).
			newRSB := rsb.Partition(cur.Fine, p, rsbCfg)
			adoptedPerm := newRSB
			if prevSnap != nil {
				inhRSB := inheritParts(st.rsb, inherit)
				mig[methRSB] = partition.MigrationCost(cur.Fine.VW, inhRSB, newRSB)
				inhPerm := inheritParts(st.perm, inherit)
				adoptedPerm = partition.MinMigrationRelabel(cur.Fine.VW, inhPerm, newRSB, p)
				mig[methPerm] = partition.MigrationCost(cur.Fine.VW, inhPerm, adoptedPerm)
			}
			st.rsb, st.perm = newRSB, adoptedPerm

			// PNR on the coarse graph, from the paper's α and β.
			if st.pnr == nil {
				st.pnr = core.Partition(cur.G, p, core.Config{})
				st.pnr = core.Repartition(cur.G, st.pnr, p, core.Config{})
			} else {
				newOwner := core.Repartition(cur.G, st.pnr, p, core.Config{})
				mig[methPNR] = partition.MigrationCost(cur.G.VW, st.pnr, newOwner)
				st.pnr = newOwner
			}
			// SFC Hilbert bands on the same coarse graph, snapped against the
			// previous step's bands.
			newSFC := sfc.Assign(sfcOrder, cur.G.VW, st.sfc, p, true, nil, &sfcScratch)
			newSFC = append([]int32(nil), newSFC...)
			if st.sfc != nil {
				mig[methSFC] = partition.MigrationCost(cur.G.VW, st.sfc, newSFC)
			}
			st.sfc = newSFC
			// Direct ML-KL from scratch, relabeled for minimum migration.
			newML := mlkl.Partition(cur.G, p, mlkl.Config{})
			if st.mlkl != nil {
				newML = partition.MinMigrationRelabel(cur.G.VW, st.mlkl, newML, p)
				mig[methMLKL] = partition.MigrationCost(cur.G.VW, st.mlkl, newML)
			}
			st.mlkl = newML

			pnrFine := cur.RootParts(st.pnr)
			sharedRSB := cur.Leaf.Mesh.SharedVertices(newRSB)
			sharedPNR := cur.Leaf.Mesh.SharedVertices(pnrFine)
			row7 = append(row7, sharedRSB, sharedPNR)
			row8 = append(row8, mig[methRSB], mig[methPerm], mig[methPNR], mig[methSFC], mig[methMLKL])
			if prevSnap != nil {
				for k, m := range mig {
					frac := 100 * float64(m) / float64(nElems)
					st.sum[k] += frac
					st.peak[k] = max(st.peak[k], frac)
				}
				st.n++
			}
			st.sharedRSB += float64(sharedRSB)
			st.sharedPNR += float64(sharedPNR)
			// §3's secondary measure and §8's connectivity concern.
			adjR, _ := partition.AdjacentSubdomains(cur.Fine, newRSB, p)
			adjP, _ := partition.AdjacentSubdomains(cur.Fine, pnrFine, p)
			st.adjRSB += adjR
			st.adjPNR += adjP
			st.discRSB += partition.DisconnectedParts(cur.Fine, newRSB, p)
			st.discPNR += partition.DisconnectedParts(cur.Fine, pnrFine, p)
		}
		res.Fig7.AddRow(row7...)
		res.Fig8.AddRow(row8...)
		if cfg.SVGDir != "" && (step == 0 || step == cfg.Steps-1) {
			exportSVG(w, cur.Leaf.Mesh, filepath.Join(cfg.SVGDir, fmt.Sprintf("fig6_t%+.2f.svg", tt)), 800)
		}
		prevSnap = cur
	}
	for i, p := range cfg.Procs {
		st := &states[i]
		n := float64(max(st.n, 1))
		steps := float64(cfg.Steps)
		row := []any{p}
		for k := range st.sum {
			row = append(row, fmt.Sprintf("%.1f (%.1f)", st.sum[k]/n, st.peak[k]))
		}
		res.Summary.AddRow(append(row,
			fmt.Sprintf("%.0f", st.sharedRSB/steps),
			fmt.Sprintf("%.0f", st.sharedPNR/steps),
			fmt.Sprintf("%.2f", st.adjRSB/steps),
			fmt.Sprintf("%.2f", st.adjPNR/steps),
			fmt.Sprintf("%.2f", float64(st.discRSB)/steps),
			fmt.Sprintf("%.2f", float64(st.discPNR)/steps))...)
	}
	if cfg.EveryStep {
		res.Fig7.Fprint(w)
		res.Fig8.Fprint(w)
	}
	res.Summary.Fprint(w)
	if cfg.SVGDir != "" {
		if err := res.WriteAllCSV(cfg.SVGDir); err != nil {
			fmt.Fprintf(w, "csv export failed: %v\n", err)
		} else {
			fmt.Fprintf(w, "wrote fig7/fig8 CSV series to %s\n", cfg.SVGDir)
		}
	}
	return res
}

// inheritParts maps the previous per-element assignment through the
// element-inheritance relation.
func inheritParts(prevParts, inherit []int32) []int32 {
	out := make([]int32, len(inherit))
	for i, p := range inherit {
		if p >= 0 && prevParts != nil {
			out[i] = prevParts[p]
		}
	}
	return out
}
