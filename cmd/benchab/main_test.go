package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func parse(t *testing.T, line string) result {
	t.Helper()
	var r result
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReportTable pins the table on three hand-made pairs: medians with
// quartiles per side, the sign convention of "better" for a lower-is-better
// and a higher-is-better metric, ties counting for neither side, the failed
// checks of each side, and a count metric that moved.
func TestReportTable(t *testing.T) {
	line := func(failed int, wall, eps, cut float64) string {
		b, err := json.Marshal(map[string]any{"failed": failed, "metrics": map[string]any{
			"wall_s": map[string]any{"value": wall}, "elems_per_s": map[string]any{"value": eps},
			"cut_mean": map[string]any{"value": cut}, "imbalance_mean": map[string]any{"value": 1.0}, "migrated_frac": map[string]any{"value": 0.5},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	parent := []result{parse(t, line(0, 1.0, 100, 7)), parse(t, line(0, 2.0, 200, 7)), parse(t, line(1, 3.0, 300, 7))}
	change := []result{parse(t, line(0, 0.5, 100, 7)), parse(t, line(0, 2.5, 400, 7)), parse(t, line(0, 1.5, 600, 7))}
	metrics := []metric{{"wall_s", "lower"}, {"elems_per_s", "higher"}}
	var out bytes.Buffer
	report(&out, "w", metrics, parent, change)
	want := "## w  pairs=3 failed_checks parent=1 new=0\n" +
		"  wall_s          parent 2 [1.5, 2.5]  new 1.5 [1, 2]  -25.0%  better in 2/3\n" +
		"  elems_per_s     parent 200 [150, 250]  new 400 [250, 500]  +100.0%  better in 2/3\n" +
		"  counts (cut_mean, imbalance_mean, migrated_frac) equal in all 6 runs: true\n"
	if out.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", out.String(), want)
	}

	change[2] = parse(t, line(0, 1.5, 600, 8))
	out.Reset()
	report(&out, "w", nil, parent, change)
	if !bytes.Contains(out.Bytes(), []byte("equal in all 6 runs: false")) {
		t.Errorf("a moved cut_mean went unreported:\n%s", out.String())
	}
}
