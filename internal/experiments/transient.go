package experiments

import (
	"fmt"
	"io"
	"path/filepath"

	"pared/internal/core"
	"pared/internal/fem"
	"pared/internal/forest"
	"pared/internal/meshgen"
	"pared/internal/partition"
	"pared/internal/partition/mlkl"
	"pared/internal/partition/rsb"
	"pared/internal/partition/sfc"
	"pared/internal/refine"
)

// TransientConfig sizes the §10 moving-peak study.
type TransientConfig struct {
	GridN     int     // initial mesh resolution
	Steps     int     // time steps from t = −0.5 to 0.5
	Tol       float64 // refine tolerance (coarsen at Tol/4)
	MaxLevel  int32
	Procs     []int
	Alpha     float64
	Beta      float64
	SVGDir    string // if set, render meshes at the first and last steps
	EveryStep bool   // emit per-step rows (Figures 7/8) vs summary only
}

// DefaultTransient returns the configuration for the given scale.
func DefaultTransient(scale Scale) TransientConfig {
	if scale == Quick {
		return TransientConfig{GridN: 12, Steps: 10, Tol: 2e-2, MaxLevel: 12, Procs: []int{4, 8}, Alpha: 0.1, Beta: 0.8}
	}
	return TransientConfig{GridN: 40, Steps: 100, Tol: 4e-3, MaxLevel: 20, Procs: []int{4, 8, 16, 32}, Alpha: 0.1, Beta: 0.8, EveryStep: true}
}

// methodState tracks one repartitioning method's assignment across steps.
type methodState struct {
	fineParts []int32 // per current leaf element (RSB variants)
	owner     []int32 // per coarse root (PNR)
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
	m0 := meshgen.RectTri(cfg.GridN, cfg.GridN, -1, -1, 1, 1)
	f := forest.FromMesh(m0)
	r := refine.NewRefiner(f)

	res := &TransientResult{
		Fig7:    &Table{Title: "Figure 7: shared vertices per step (RSB vs PNR)", Header: []string{"step", "t", "elems"}},
		Fig8:    &Table{Title: "Figure 8: elements migrated per step (RSB, permuted RSB, PNR, SFC, ML-KL)", Header: []string{"step", "t", "elems"}},
		Summary: &Table{Title: "Section 10 summary: average (peak) migrated fraction, %", Header: []string{"procs", "RSB", "permRSB", "PNR", "SFC", "MLKL", "sharedV RSB", "sharedV PNR", "adjSub RSB", "adjSub PNR", "disc RSB", "disc PNR"}},
	}
	for _, p := range cfg.Procs {
		res.Fig7.Header = append(res.Fig7.Header, fmt.Sprintf("RSB:%d", p), fmt.Sprintf("PNR:%d", p))
		res.Fig8.Header = append(res.Fig8.Header, fmt.Sprintf("RSB:%d", p), fmt.Sprintf("perm:%d", p),
			fmt.Sprintf("PNR:%d", p), fmt.Sprintf("SFC:%d", p), fmt.Sprintf("MLKL:%d", p))
	}

	pnrCfg := core.Config{Alpha: cfg.Alpha, Beta: cfg.Beta}
	rsbCfg := rsb.Config{Seed: 17}
	states := make(map[int]*[5]methodState) // per p: [rsb, rsbPerm, pnr, sfc, mlkl]
	type agg struct {
		sumRSB, sumPerm, sumPNR, sumSFC, sumMLKL      float64
		peakRSB, peakPerm, peakPNR, peakSFC, peakMLKL float64
		sumSharedRSB, sumSharedPNR                    float64
		sumAdjRSB, sumAdjPNR                          float64
		discRSB, discPNR                              int
		n                                             int
	}
	aggs := make(map[int]*agg)
	for _, p := range cfg.Procs {
		states[p] = &[5]methodState{}
		aggs[p] = &agg{}
	}
	// The SFC methods partition the coarse graph, whose vertex set is the
	// invariant root set of m0: the curve order is computed once.
	sfcKeys := sfc.Keys(m0, sfc.Hilbert)
	sfcOrder, _ := sfc.Order(sfcKeys)
	var sfcScratch sfc.AssignScratch

	var prevSnap *Snapshot
	for step := 0; step < cfg.Steps; step++ {
		tt := -0.5 + float64(step)/float64(max(cfg.Steps-1, 1))
		est := fem.InterpolationEstimator(fem.TransientSolution(tt))
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
		for _, p := range cfg.Procs {
			st := states[p]
			a := aggs[p]
			// Fresh RSB partition of the current fine mesh (identical for
			// both RSB variants; they differ only in adopted labels).
			newRSB := rsb.Partition(cur.Fine, p, rsbCfg)

			migRSB, migPerm := int64(0), int64(0)
			var adoptedPerm []int32
			if prevSnap == nil {
				adoptedPerm = newRSB
			} else {
				inhRSB := inheritParts(st[0].fineParts, inherit)
				migRSB = partition.MigrationCost(cur.Fine.VW, inhRSB, newRSB)
				inhPerm := inheritParts(st[1].fineParts, inherit)
				adoptedPerm = partition.MinMigrationRelabel(cur.Fine.VW, inhPerm, newRSB, p)
				migPerm = partition.MigrationCost(cur.Fine.VW, inhPerm, adoptedPerm)
			}
			st[0].fineParts = newRSB
			st[1].fineParts = adoptedPerm

			// PNR on the coarse graph.
			migPNR := int64(0)
			if st[2].owner == nil {
				st[2].owner = core.Partition(cur.G, p, pnrCfg)
				st[2].owner = core.Repartition(cur.G, st[2].owner, p, pnrCfg)
			} else {
				newOwner := core.Repartition(cur.G, st[2].owner, p, pnrCfg)
				migPNR = partition.MigrationCost(cur.G.VW, st[2].owner, newOwner)
				st[2].owner = newOwner
			}
			// SFC Hilbert bands on the same coarse graph, snapped against the
			// previous step's bands.
			migSFC := int64(0)
			{
				newOwner := sfc.Assign(sfcOrder, cur.G.VW, st[3].owner, p, true, nil, &sfcScratch)
				newOwner = append([]int32(nil), newOwner...)
				if st[3].owner != nil {
					migSFC = partition.MigrationCost(cur.G.VW, st[3].owner, newOwner)
				}
				st[3].owner = newOwner
			}
			// Direct ML-KL from scratch, relabeled for minimum migration.
			migMLKL := int64(0)
			{
				newOwner := mlkl.Partition(cur.G, p, mlkl.Config{})
				if st[4].owner != nil {
					newOwner = partition.MinMigrationRelabel(cur.G.VW, st[4].owner, newOwner, p)
					migMLKL = partition.MigrationCost(cur.G.VW, st[4].owner, newOwner)
				}
				st[4].owner = newOwner
			}
			sharedRSB := cur.Leaf.Mesh.SharedVertices(newRSB)
			sharedPNR := cur.Leaf.Mesh.SharedVertices(cur.RootParts(st[2].owner))
			row7 = append(row7, sharedRSB, sharedPNR)
			row8 = append(row8, migRSB, migPerm, migPNR, migSFC, migMLKL)
			if prevSnap != nil {
				tot := float64(nElems)
				fr, fp, fn := 100*float64(migRSB)/tot, 100*float64(migPerm)/tot, 100*float64(migPNR)/tot
				fs, fm := 100*float64(migSFC)/tot, 100*float64(migMLKL)/tot
				a.sumRSB += fr
				a.sumPerm += fp
				a.sumPNR += fn
				a.sumSFC += fs
				a.sumMLKL += fm
				a.peakRSB = max(a.peakRSB, fr)
				a.peakPerm = max(a.peakPerm, fp)
				a.peakPNR = max(a.peakPNR, fn)
				a.peakSFC = max(a.peakSFC, fs)
				a.peakMLKL = max(a.peakMLKL, fm)
				a.n++
			}
			a.sumSharedRSB += float64(sharedRSB)
			a.sumSharedPNR += float64(sharedPNR)
			// §3's secondary measure and §8's connectivity concern.
			adjR, _ := partition.AdjacentSubdomains(cur.Fine, newRSB, p)
			pnrFine := cur.RootParts(st[2].owner)
			adjP, _ := partition.AdjacentSubdomains(cur.Fine, pnrFine, p)
			a.sumAdjRSB += adjR
			a.sumAdjPNR += adjP
			a.discRSB += partition.DisconnectedParts(cur.Fine, newRSB, p)
			a.discPNR += partition.DisconnectedParts(cur.Fine, pnrFine, p)
		}
		res.Fig7.AddRow(row7...)
		res.Fig8.AddRow(row8...)
		if cfg.SVGDir != "" && (step == 0 || step == cfg.Steps-1) {
			exportSVG(w, cur.Leaf.Mesh, filepath.Join(cfg.SVGDir, fmt.Sprintf("fig6_t%+.2f.svg", tt)), 800)
		}
		prevSnap = cur
	}
	for _, p := range cfg.Procs {
		a := aggs[p]
		n := float64(max(a.n, 1))
		steps := float64(cfg.Steps)
		res.Summary.AddRow(p,
			fmt.Sprintf("%.1f (%.1f)", a.sumRSB/n, a.peakRSB),
			fmt.Sprintf("%.1f (%.1f)", a.sumPerm/n, a.peakPerm),
			fmt.Sprintf("%.1f (%.1f)", a.sumPNR/n, a.peakPNR),
			fmt.Sprintf("%.1f (%.1f)", a.sumSFC/n, a.peakSFC),
			fmt.Sprintf("%.1f (%.1f)", a.sumMLKL/n, a.peakMLKL),
			fmt.Sprintf("%.0f", a.sumSharedRSB/steps),
			fmt.Sprintf("%.0f", a.sumSharedPNR/steps),
			fmt.Sprintf("%.2f", a.sumAdjRSB/steps),
			fmt.Sprintf("%.2f", a.sumAdjPNR/steps),
			fmt.Sprintf("%.2f", float64(a.discRSB)/steps),
			fmt.Sprintf("%.2f", float64(a.discPNR)/steps))
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
