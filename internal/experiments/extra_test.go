package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
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

func TestFig45For3DQuick(t *testing.T) {
	var buf bytes.Buffer
	Fig45For3D(&buf, Quick)
	out := buf.String()
	if !strings.Contains(out, "PNR mig%") {
		t.Fatalf("missing table:\n%s", out)
	}
	// Summed PNR migration must be below summed RSB migration.
	var rsbSum, pnrSum int64
	for _, ln := range strings.Split(out, "\n") {
		fields := strings.Fields(ln)
		if len(fields) != 7 || !isInt(fields[0]) {
			continue
		}
		r, _ := strconv.ParseInt(fields[3], 10, 64)
		p, _ := strconv.ParseInt(fields[5], 10, 64)
		rsbSum += r
		pnrSum += p
	}
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
	cfg := TransientConfig{GridN: 4, Steps: 2, Tol: 2e-2, MaxLevel: 6, Procs: []int{2}, Alpha: 0.1, Beta: 0.8, SVGDir: notADir(t)}
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

func TestTransient3DQuick(t *testing.T) {
	var buf bytes.Buffer
	Transient3D(&buf, Quick)
	out := buf.String()
	if !strings.Contains(out, "PNR avg%") {
		t.Fatalf("missing table:\n%s", out)
	}
	// Parse the two method averages and require PNR below permuted RSB.
	for _, ln := range strings.Split(out, "\n") {
		f := strings.Fields(ln)
		if len(f) != 8 || !isInt(f[0]) {
			continue
		}
		rsbAvg, _ := strconv.ParseFloat(f[2], 64)
		pnrAvg, _ := strconv.ParseFloat(f[4], 64)
		if pnrAvg > rsbAvg {
			t.Errorf("3D transient: PNR avg %.1f%% above permuted RSB %.1f%%: %s", pnrAvg, rsbAvg, ln)
		}
	}
}
