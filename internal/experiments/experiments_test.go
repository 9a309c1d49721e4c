package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"pared/internal/core"
	"pared/internal/fem"
	"pared/internal/meshgen"
	"pared/internal/partition"
)

func TestAdaptSeriesGrowsAndLinks(t *testing.T) {
	m0 := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := fem.InterpolationEstimator(fem.CornerSolution2D)
	snaps := AdaptSeries(m0, est, 1e-2, 20, 5)
	if len(snaps) < 3 {
		t.Fatalf("only %d snapshots", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Leaf.Mesh.NumElems() <= snaps[i-1].Leaf.Mesh.NumElems() {
			t.Errorf("level %d did not grow", i)
		}
		for e, p := range snaps[i].ParentLeaf {
			if p < 0 || int(p) >= snaps[i-1].Leaf.Mesh.NumElems() {
				t.Fatalf("level %d elem %d has bad parent %d", i, e, p)
			}
			// Parent must be in the same tree.
			if snaps[i].Leaf.LeafRoot[e] != snaps[i-1].Leaf.LeafRoot[p] {
				t.Fatalf("level %d elem %d parent in different tree", i, e)
			}
		}
	}
	// Coarse graph weights sum to fine element count.
	last := snaps[len(snaps)-1]
	if last.G.TotalVW() != int64(last.Leaf.Mesh.NumElems()) {
		t.Errorf("coarse weights %d != elements %d", last.G.TotalVW(), last.Leaf.Mesh.NumElems())
	}
}

func TestInheritPartsConservesAssignment(t *testing.T) {
	m0 := meshgen.RectTri(6, 6, -1, -1, 1, 1)
	est := fem.InterpolationEstimator(fem.CornerSolution2D)
	snaps := AdaptSeries(m0, est, 1e-2, 20, 3)
	if len(snaps) < 2 {
		t.Skip("not enough adaptation")
	}
	prev, next := snaps[len(snaps)-2], snaps[len(snaps)-1]
	parts := make([]int32, prev.Leaf.Mesh.NumElems())
	for i := range parts {
		parts[i] = int32(i % 4)
	}
	inh := next.InheritParts(parts)
	// Every element whose parent did not split keeps its assignment; every
	// child of a split parent inherits it. Spot-check via ParentLeaf.
	for e, p := range next.ParentLeaf {
		if inh[e] != parts[p] {
			t.Fatalf("elem %d inherited %d, parent had %d", e, inh[e], parts[p])
		}
	}
}

func TestGrowthSeriesSizes(t *testing.T) {
	m0 := meshgen.RectTri(10, 10, -1, -1, 1, 1)
	est := fem.InterpolationEstimator(fem.CornerSolution2D)
	steps := GrowthSeries(m0, est, []int{400, 800}, 30)
	if len(steps) != 2 {
		t.Fatalf("steps = %d", len(steps))
	}
	for i, s := range steps {
		ne := s.Next.Leaf.Mesh.NumElems()
		pe := s.Prev.Leaf.Mesh.NumElems()
		if ne <= pe {
			t.Errorf("step %d: no incremental refinement (%d -> %d)", i, pe, ne)
		}
		if float64(ne-pe) > 0.25*float64(pe) {
			t.Errorf("step %d: refinement too large (%d -> %d), should be a few %%", i, pe, ne)
		}
	}
	if float64(steps[1].Prev.Leaf.Mesh.NumElems()) < 1.6*float64(steps[0].Prev.Leaf.Mesh.NumElems()) {
		t.Errorf("series did not grow between entries: %d -> %d",
			steps[0].Prev.Leaf.Mesh.NumElems(), steps[1].Prev.Leaf.Mesh.NumElems())
	}
}

func TestInheritByLocationIdentity(t *testing.T) {
	m0 := meshgen.RectTri(6, 6, -1, -1, 1, 1)
	est := fem.InterpolationEstimator(fem.CornerSolution2D)
	snaps := AdaptSeries(m0, est, 1e-2, 20, 2)
	s := snaps[len(snaps)-1]
	// Mapping a snapshot onto itself must be the identity.
	self := InheritByLocation(s, s)
	for i, p := range self {
		if p != int32(i) {
			t.Fatalf("self-inheritance not identity at %d: %d", i, p)
		}
	}
	// And refine-only inheritance must agree with the NodeID-based map.
	if len(snaps) >= 2 {
		prev, next := snaps[len(snaps)-2], snaps[len(snaps)-1]
		geo := InheritByLocation(prev, next)
		for i := range geo {
			if geo[i] != next.ParentLeaf[i] {
				t.Fatalf("geometric inheritance disagrees at %d: %d vs %d", i, geo[i], next.ParentLeaf[i])
			}
		}
	}
}

func TestFig1Quick(t *testing.T) {
	var buf bytes.Buffer
	Fig1(&buf, Quick, "")
	out := buf.String()
	if !strings.Contains(out, "Figure 1 (2D)") || !strings.Contains(out, "Figure 1 (3D)") {
		t.Error("missing tables")
	}
}

func TestFig3QuickShapes(t *testing.T) {
	var buf bytes.Buffer
	Fig3(&buf, Quick)
	out := buf.String()
	if !strings.Contains(out, "KL:4") || !strings.Contains(out, "PNR:16") {
		t.Fatalf("missing columns:\n%s", out)
	}
	// Parse the 2D table rows and check PNR quality is within 2x of ML-KL.
	checkComparableColumns(t, out, "KL:", "PNR:", 2.0)
}

// checkComparableColumns parses rendered tables and compares paired columns.
func checkComparableColumns(t *testing.T, out, aPrefix, bPrefix string, factor float64) {
	t.Helper()
	lines := strings.Split(out, "\n")
	var header []string
	var cols []int
	for _, ln := range lines {
		fields := strings.Fields(ln)
		if len(fields) == 0 {
			continue
		}
		if strings.HasPrefix(fields[0], "level") {
			header = fields
			cols = nil
			continue
		}
		if header == nil || strings.HasPrefix(ln, "-") || !isInt(fields[0]) {
			continue
		}
		_ = cols
		for i, h := range header {
			if strings.HasPrefix(h, aPrefix) && i < len(fields) {
				// find matching b column with same proc count
				suffix := strings.TrimPrefix(h, aPrefix)
				for j, h2 := range header {
					if h2 == bPrefix+suffix && j < len(fields) {
						a, _ := strconv.Atoi(fields[i])
						b, _ := strconv.Atoi(fields[j])
						if a > 4 && b > 4 { // skip degenerate rows
							if float64(b) > factor*float64(a)+10 {
								t.Errorf("row %q: %s=%d vs %s=%d exceeds factor %v", ln, h, a, h2, b, factor)
							}
						}
					}
				}
			}
		}
	}
}

func isInt(s string) bool {
	_, err := strconv.Atoi(s)
	return err == nil
}

func TestFig45QuickMigrationGap(t *testing.T) {
	var b4, b5 bytes.Buffer
	Fig4(&b4, DefaultGrowth(Quick))
	Fig5(&b5, DefaultGrowth(Quick))
	mig4 := sumColumn(t, b4.String(), "migrate")
	mig5 := sumColumn(t, b5.String(), "migrate")
	if mig5*3 > mig4 {
		t.Errorf("PNR total migration %d not clearly below RSB %d", mig5, mig4)
	}
}

// sumColumn sums an integer column by header name across all table rows.
func sumColumn(t *testing.T, out, col string) int64 {
	t.Helper()
	lines := strings.Split(out, "\n")
	idx := -1
	var sum int64
	for _, ln := range lines {
		fields := strings.Fields(ln)
		if len(fields) == 0 || strings.HasPrefix(ln, "-") {
			continue
		}
		if fields[0] == "procs" {
			for i, f := range fields {
				if f == col {
					idx = i
				}
			}
			continue
		}
		if idx >= 0 && idx < len(fields) && isInt(fields[0]) {
			v, err := strconv.ParseInt(fields[idx], 10, 64)
			if err == nil {
				sum += v
			}
		}
	}
	if idx < 0 {
		t.Fatalf("column %q not found in:\n%s", col, out)
	}
	return sum
}

func TestTransientQuick(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultTransient(Quick)
	res := Transient(&buf, cfg)
	if len(res.Fig7.Rows) != cfg.Steps || len(res.Fig8.Rows) != cfg.Steps {
		t.Fatalf("rows: fig7=%d fig8=%d want %d", len(res.Fig7.Rows), len(res.Fig8.Rows), cfg.Steps)
	}
	// PNR average migration must be clearly below plain RSB's.
	sum := func(tab *Table, colPrefix string) int64 {
		var s int64
		for _, row := range tab.Rows {
			for i, h := range tab.Header {
				if strings.HasPrefix(h, colPrefix) && i < len(row) {
					v, err := strconv.ParseInt(row[i], 10, 64)
					if err == nil {
						s += v
					}
				}
			}
		}
		return s
	}
	rsbMig := sum(res.Fig8, "RSB:")
	pnrMig := sum(res.Fig8, "PNR:")
	if pnrMig*2 > rsbMig {
		t.Errorf("transient: PNR migration %d not clearly below RSB %d", pnrMig, rsbMig)
	}
	// Figure 7's claim: PNR's cut "does not deteriorate over time and is
	// similar" to RSB's. Allow slack at quick scale.
	rsbCut := sum(res.Fig7, "RSB:")
	pnrCut := sum(res.Fig7, "PNR:")
	if float64(pnrCut) > 1.6*float64(rsbCut) {
		t.Errorf("transient: PNR shared vertices %d far above RSB %d", pnrCut, rsbCut)
	}
}

func TestSection8Quick(t *testing.T) {
	var buf bytes.Buffer
	Section8(&buf, Quick)
	if !strings.Contains(buf.String(), "estimate") {
		t.Error("missing table")
	}
}

func TestTheorem61Quick(t *testing.T) {
	var buf bytes.Buffer
	Theorem61(&buf, Quick)
	out := buf.String()
	// Every expansion value must respect the 9x bound (with slack for the
	// plurality projection differing from the theorem's constructive one).
	for _, ln := range strings.Split(out, "\n") {
		fields := strings.Fields(ln)
		if len(fields) < 6 || !isInt(fields[0]) {
			continue
		}
		exp, err := strconv.ParseFloat(fields[5], 64)
		if err == nil && exp > 9.0 {
			t.Errorf("cut expansion %v exceeds the 9x bound: %s", exp, ln)
		}
	}
}

func TestEngineDemoQuick(t *testing.T) {
	var buf bytes.Buffer
	EngineDemo(&buf, Quick, "pnr")
	if strings.Contains(buf.String(), "failed") {
		t.Fatalf("engine demo failed:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "moved elems") {
		t.Error("missing table")
	}
	if !strings.Contains(buf.String(), "phase totals (rank 0, pnr): P1 ") {
		t.Errorf("missing phase totals line:\n%s", buf.String())
	}
}

func TestEngineDemoModes(t *testing.T) {
	for _, mode := range []string{"sfc", "mlkl"} {
		var buf bytes.Buffer
		EngineDemo(&buf, Quick, mode)
		if strings.Contains(buf.String(), "failed") {
			t.Fatalf("engine demo (%s) failed:\n%s", mode, buf.String())
		}
		if !strings.Contains(buf.String(), "phase totals (rank 0, "+mode+"): P1 ") {
			t.Errorf("mode %s: missing phase totals line:\n%s", mode, buf.String())
		}
	}
}

func TestThreeWayQuick(t *testing.T) {
	var buf bytes.Buffer
	ThreeWay(&buf, Quick)
	out := buf.String()
	for _, col := range []string{"cut PNR", "mig% SFC", "cut MLKL"} {
		if !strings.Contains(out, col) {
			t.Errorf("three-way table missing column %q:\n%s", col, out)
		}
	}
}

func TestMigrationRelabelInvariantOnPNR(t *testing.T) {
	// Figure 5's last column equals its migrate column: permuting PNR's
	// output gains nothing because PNR already pins subsets to processors.
	m0 := meshgen.RectTri(10, 10, -1, -1, 1, 1)
	est := fem.InterpolationEstimator(fem.CornerSolution2D)
	steps := GrowthSeries(m0, est, []int{400}, 30)
	s := steps[0]
	p := 4
	owner := core.Partition(s.Prev.G, p, core.Config{})
	owner = core.Repartition(s.Prev.G, owner, p, core.Config{})
	newOwner := core.Repartition(s.Next.G, owner, p, core.Config{})
	mig := partition.MigrationCost(s.Next.G.VW, owner, newOwner)
	perm := partition.MinMigrationRelabel(s.Next.G.VW, owner, newOwner, p)
	migPerm := partition.MigrationCost(s.Next.G.VW, owner, perm)
	if migPerm != mig {
		t.Errorf("permutation changed PNR migration: %d vs %d", migPerm, mig)
	}
}
