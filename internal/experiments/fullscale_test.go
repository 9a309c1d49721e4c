package experiments

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// Full-scale assertion tests: executable forms of the EXPERIMENTS.md claims.
// They take minutes, so they run only with PARED_FULL=1:
//
//	PARED_FULL=1 go test ./internal/experiments -run TestFullScale -v
func fullScale(t *testing.T) {
	t.Helper()
	if os.Getenv("PARED_FULL") == "" {
		t.Skip("set PARED_FULL=1 to run paper-scale assertions")
	}
}

func TestFullScaleFig5Claims(t *testing.T) {
	fullScale(t)
	var buf bytes.Buffer
	Fig5(&buf, DefaultGrowth(Full))
	out := buf.String()
	type row struct {
		elems, migrate, migratePerm int64
		migPct                      float64
	}
	var rows []row
	for _, ln := range strings.Split(out, "\n") {
		f := strings.Fields(ln)
		if len(f) != 8 || !isInt(f[0]) {
			continue
		}
		e, _ := strconv.ParseInt(f[3], 10, 64)
		m, _ := strconv.ParseInt(f[5], 10, 64)
		mp, _ := strconv.ParseInt(f[6], 10, 64)
		pct, _ := strconv.ParseFloat(f[7], 64)
		rows = append(rows, row{e, m, mp, pct})
	}
	if len(rows) != 25 {
		t.Fatalf("expected 25 rows, got %d:\n%s", len(rows), out)
	}
	// Claim 1: the permutation gains nothing for PNR.
	for i, r := range rows {
		if r.migrate != r.migratePerm {
			t.Errorf("row %d: migrate %d != permuted %d", i, r.migrate, r.migratePerm)
		}
	}
	// Claim 2: most rows migrate under 3%; none above 25%.
	small := 0
	for i, r := range rows {
		if r.migPct <= 3.0 {
			small++
		}
		if r.migPct > 25 {
			t.Errorf("row %d migrates %.1f%%", i, r.migPct)
		}
	}
	if small < 18 {
		t.Errorf("only %d of 25 rows under 3%% migration", small)
	}
	// Claim 3: size independence — largest meshes stay small on average.
	var largeSum float64
	for _, r := range rows[20:] {
		largeSum += r.migPct
	}
	if largeSum/5 > 5 {
		t.Errorf("largest-mesh rows average %.1f%% migration", largeSum/5)
	}
}

func TestFullScaleSection8Claim(t *testing.T) {
	fullScale(t)
	var buf bytes.Buffer
	Section8(&buf, Full)
	for _, ln := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(ln)
		if len(f) != 8 || !isInt(f[0]) {
			continue
		}
		ratio, err := strconv.ParseFloat(f[7], 64)
		if err != nil {
			t.Fatalf("bad ratio in %q", ln)
		}
		if ratio > 2.0 {
			t.Errorf("hop-migration %.2fx the lower estimate (want close to 1): %s", ratio, ln)
		}
	}
}

func TestFullScaleTheorem61Claim(t *testing.T) {
	fullScale(t)
	var buf bytes.Buffer
	Theorem61(&buf, Full)
	for _, ln := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(ln)
		if len(f) < 6 || !isInt(f[0]) {
			continue
		}
		exp, err := strconv.ParseFloat(f[5], 64)
		if err == nil && exp > 9.0 {
			t.Errorf("cut expansion %.2f exceeds the 9x bound: %s", exp, ln)
		}
	}
}
