package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pared/internal/meshgen"
)

func TestAblationQuick(t *testing.T) {
	var buf bytes.Buffer
	Ablation(&buf, Quick)
	out := buf.String()
	if !strings.Contains(out, "paper (a=0.1") || !strings.Contains(out, "unrestricted matching") {
		t.Fatalf("missing variants:\n%s", out)
	}
	// Parse migration column: alpha=1.0 must migrate no more than alpha=0.
	migOf := func(prefix string) int64 {
		for _, ln := range strings.Split(out, "\n") {
			if strings.HasPrefix(ln, prefix) {
				fields := strings.Fields(ln)
				// columns: variant(words)... cut migrate mig% imbalance cost
				for i := len(fields) - 1; i >= 0; i-- {
					_ = i
				}
				v, err := strconv.ParseInt(fields[len(fields)-4], 10, 64)
				if err != nil {
					t.Fatalf("bad row %q: %v", ln, err)
				}
				return v
			}
		}
		t.Fatalf("row %q not found", prefix)
		return 0
	}
	a0 := migOf("alpha=0 ")
	a1 := migOf("alpha=1.0 ")
	if a1 > a0 {
		t.Errorf("alpha=1.0 migrated more (%d) than alpha=0 (%d)", a1, a0)
	}
}

// TestFig45For3DQuick: on the tetrahedral growth series, PNR's migration
// (Figure 5's "migrate") is clearly below RSB's at its best, with the
// Biswas–Oliker permutation (Figure 4's "migrate(perm)").
func TestFig45For3DQuick(t *testing.T) {
	var b4, b5 bytes.Buffer
	Fig4(&b4, DefaultGrowth3D(Quick))
	Fig5(&b5, DefaultGrowth3D(Quick))
	if !strings.Contains(b4.String(), "Figure 4 (3D)") || !strings.Contains(b5.String(), "Figure 5 (3D)") {
		t.Fatalf("missing 3D tables:\n%s%s", b4.String(), b5.String())
	}
	rsbSum := sumColumn(t, b4.String(), "migrate(perm)")
	pnrSum := sumColumn(t, b5.String(), "migrate")
	if pnrSum*2 > rsbSum {
		t.Errorf("3D: PNR migration %d not clearly below RSB %d", pnrSum, rsbSum)
	}
}

func TestTransientCSVExport(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultTransient(Quick)
	cfg.Steps = 4
	cfg.SVGDir = dir
	var buf bytes.Buffer
	Transient(&buf, cfg)
	for _, name := range []string{"fig7_shared_vertices.csv", "fig8_elements_moved.csv", "fig78_summary.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 2 {
			t.Errorf("%s: only %d lines", name, len(lines))
		}
		if !strings.Contains(lines[0], ",") {
			t.Errorf("%s: header not CSV: %q", name, lines[0])
		}
	}
}

// notADir returns the path of a regular file, so that creating anything
// inside it fails.
func notADir(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWriteCSVReturnsCreateError(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	if err := tab.WriteCSV(notADir(t), "x"); err == nil {
		t.Error("WriteCSV into a regular file returned nil")
	}
}

// TestTransientReportsExportFailure runs the study with SVGDir naming a
// regular file: both mesh renderings and the CSV export must report their
// failure, and no line may claim a file was written.
func TestTransientReportsExportFailure(t *testing.T) {
	cfg := DefaultTransient(Quick)
	cfg.m0 = meshgen.RectTri(4, 4, -1, -1, 1, 1)
	cfg.Steps, cfg.MaxLevel, cfg.Procs, cfg.SVGDir = 2, 6, []int{2}, notADir(t)
	var buf bytes.Buffer
	Transient(&buf, cfg)
	out := buf.String()
	if n := strings.Count(out, "svg export failed: "); n != 2 {
		t.Errorf("%d svg export failures reported, want 2 (first and last step):\n%s", n, out)
	}
	if !strings.Contains(out, "csv export failed: ") {
		t.Errorf("csv export failure not reported:\n%s", out)
	}
	if strings.Contains(out, "wrote ") {
		t.Errorf("a failed export was reported as written:\n%s", out)
	}
}

func TestGeoComparisonQuick(t *testing.T) {
	var buf bytes.Buffer
	GeoComparison(&buf, Quick)
	if !strings.Contains(buf.String(), "RCB") || !strings.Contains(buf.String(), "ML-KL") {
		t.Fatalf("missing table:\n%s", buf.String())
	}
}

func TestDiffusionComparisonQuick(t *testing.T) {
	var buf bytes.Buffer
	DiffusionComparison(&buf, Quick)
	out := buf.String()
	if !strings.Contains(out, "diff mig") || !strings.Contains(out, "cum-mig") {
		t.Fatalf("missing tables:\n%s", out)
	}
}

// TestTransient3DQuick: in the 3D case of the §10 study, PNR's average
// migrated fraction is below permuted RSB's at every processor count.
func TestTransient3DQuick(t *testing.T) {
	var buf bytes.Buffer
	res := Transient(&buf, DefaultTransient3D(Quick))
	if !strings.Contains(buf.String(), "Section 10 summary (3D)") || len(res.Summary.Rows) != 2 {
		t.Fatalf("missing 3D summary:\n%s", buf.String())
	}
	// Cells read "avg (peak)"; columns: procs, RSB, permRSB, PNR, ...
	avg := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.Fields(cell)[0], 64)
		if err != nil {
			t.Fatalf("bad cell %q: %v", cell, err)
		}
		return v
	}
	for _, row := range res.Summary.Rows {
		if rsbAvg, pnrAvg := avg(row[2]), avg(row[3]); pnrAvg > rsbAvg {
			t.Errorf("3D transient: PNR avg %.1f%% above permuted RSB %.1f%%: %v", pnrAvg, rsbAvg, row)
		}
	}
}
