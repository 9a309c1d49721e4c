package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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
// checks of each side, and a count metric that moved; then, on ten pairs,
// one metric of each verdict.
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
	// Ten-second runs; the six readings' median is 0.35 s, and only the
	// base's third passes it by more than a second.
	for i, foreign := range [][2]time.Duration{{200, 100}, {500, 300}, {2000, 400}} {
		parent[i].wall, parent[i].foreign, parent[i].known = 10*time.Second, foreign[0]*time.Millisecond, true
		change[i].wall, change[i].foreign, change[i].known = 10*time.Second, foreign[1]*time.Millisecond, true
	}
	metrics := []metric{{"wall_s", "lower", 0.2}, {"elems_per_s", "higher", 0.2}}
	var out bytes.Buffer
	report(&out, "w", metrics, parent, change)
	want := "## w  pairs=3 failed_checks parent=1 new=0\n" +
		"  wall_s          parent 2 [1.5, 2.5]  new 1.5 [1, 2]  -25.0%  better in 2/3\n" +
		"  elems_per_s     parent 200 [150, 250]  new 400 [250, 500]  +100.0%  better in 2/3\n" +
		"  counts (cut_mean, imbalance_mean, migrated_frac) equal in all 6 runs: true\n" +
		"  foreign CPU s   parent 0.5 [0.35, 1.25]  new 0.3 [0.2, 0.35]  contended pairs (over the median 0.35 by 10% of a run's wall time): 3\n"
	if out.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", out.String(), want)
	}

	change[2] = parse(t, line(0, 1.5, 600, 8))
	out.Reset()
	report(&out, "w", nil, parent, change)
	if !bytes.Contains(out.Bytes(), []byte("equal in all 6 runs: false")) {
		t.Errorf("a moved cut_mean went unreported:\n%s", out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("foreign CPU: unknown")) {
		t.Errorf("a run whose host could not be read went unreported:\n%s", out.String())
	}

	// The verdicts, on ten pairs whose parent reads 1, 2, …, 10 (median 5.5,
	// interquartile range 3.25 to 7.75). wall_s falls by 5 in nine pairs
	// and rises to 20 in the tenth: better in 9/10 and a median 5 lower,
	// more than the range of 4.5, so "gain". elems_per_s rises by 1 in nine
	// pairs: better in 9/10 too, but its median moves by only 1, so no
	// verdict. adapt_s reads 5 against 4 in every pair: 25 % worse than the
	// parent, past its 20 % bound, so "worse".
	parent, change = nil, nil
	for i := 1; i <= 10; i++ {
		x := float64(i)
		r := func(wall, eps, adapt float64) result {
			b, err := json.Marshal(map[string]any{"metrics": map[string]any{
				"wall_s": map[string]any{"value": wall}, "elems_per_s": map[string]any{"value": eps}, "adapt_s": map[string]any{"value": adapt},
			}})
			if err != nil {
				t.Fatal(err)
			}
			return parse(t, string(b))
		}
		wall, eps := x-5, x+1
		if i == 10 {
			wall, eps = 20, x-1
		}
		parent = append(parent, r(x, x, 4))
		change = append(change, r(wall, eps, 5))
	}
	out.Reset()
	report(&out, "w", []metric{{"wall_s", "lower", 0.2}, {"elems_per_s", "higher", 0.2}, {"adapt_s", "lower", 0.2}}, parent, change)
	want = "## w  pairs=10 failed_checks parent=0 new=0\n" +
		"  wall_s          parent 5.5 [3.25, 7.75]  new 0.5 [-1.75, 2.75]  -90.9%  better in 9/10  gain\n" +
		"  elems_per_s     parent 5.5 [3.25, 7.75]  new 6.5 [4.25, 8.75]  +18.2%  better in 9/10\n" +
		"  adapt_s         parent 4 [4, 4]  new 5 [5, 5]  +25.0%  better in 0/10  worse\n"
	if got := out.String(); !strings.HasPrefix(got, want) {
		t.Errorf("got:\n%s\nwant it to start:\n%s", got, want)
	}
}

// TestExportFreezesBothSides builds a repository whose working tree differs
// from its commit in every way git tells apart — a tracked file edited, one
// deleted, an untracked file, an ignored one, an executable — and checks
// what exportWorkTree copies, that the copy stays as it was when the tree is
// edited afterwards, and that the digests of the two exports agree exactly
// when their files do.
func TestExportFreezesBothSides(t *testing.T) {
	repo, out := t.TempDir(), t.TempDir()
	git := func(args ...string) {
		t.Helper()
		if _, err := gitOutput(repo, append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com"}, args...)...); err != nil {
			t.Fatal(err)
		}
	}
	write := func(name, data string, mode os.FileMode) {
		t.Helper()
		path := filepath.Join(repo, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), mode); err != nil {
			t.Fatal(err)
		}
	}
	git("init", "-q")
	write(".gitignore", "build/\n", 0o644)
	write("kept.go", "package kept\n", 0o644)
	write("edited.go", "package old\n", 0o644)
	write("gone.go", "package gone\n", 0o644)
	write("sub/run.sh", "#!/bin/sh\n", 0o755)
	git("add", "-A")
	git("commit", "-q", "-m", "base")

	base, head := filepath.Join(out, "base"), filepath.Join(out, "head")
	if err := exportRef(repo, "HEAD", base); err != nil {
		t.Fatal(err)
	}
	if err := exportWorkTree(repo, head); err != nil {
		t.Fatal(err)
	}
	sum := func(dir string) string {
		t.Helper()
		s, err := digest(dir)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if a, b := sum(base), sum(head); a != b {
		t.Fatalf("a clean working tree reads %s, its commit %s", b, a)
	}

	write("edited.go", "package new\n", 0o644)
	if err := os.Remove(filepath.Join(repo, "gone.go")); err != nil {
		t.Fatal(err)
	}
	write("untracked.go", "package untracked\n", 0o644)
	write("build/binary", "ignored\n", 0o644)
	if err := exportWorkTree(repo, head); err != nil {
		t.Fatal(err)
	}
	frozen := sum(head)
	if frozen == sum(base) {
		t.Fatal("an edited working tree reads its commit's digest")
	}
	var got []string
	err := filepath.WalkDir(head, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(head, path)
			got = append(got, filepath.ToSlash(rel))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{".gitignore", "edited.go", "kept.go", "sub/run.sh", "untracked.go"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("exported %v, want %v", got, want)
	}
	if data, _ := os.ReadFile(filepath.Join(head, "edited.go")); string(data) != "package new\n" {
		t.Errorf("edited.go exported as %q, want the working tree's", data)
	}
	if info, err := os.Stat(filepath.Join(head, "sub/run.sh")); err != nil || info.Mode().Perm()&0o100 == 0 {
		t.Errorf("sub/run.sh lost its executable bit: %v %v", info, err)
	}

	// An edit after the export reaches neither copy.
	write("edited.go", "package later\n", 0o644)
	if sum(head) != frozen {
		t.Error("an edit of the working tree changed the exported copy")
	}
}

// TestForeignCPU: parseBusy counts every field of /proc/stat's cpu line but
// idle, iowait, guest and guest_nice, and rejects a first line that is not
// the total; runOnce, on a faked host whose busy time grows by three seconds
// around a run that itself takes next to none, reports about three seconds
// of foreign CPU time, and reports the time unknown when the host cannot be
// read; a series whose every run reads the same bias marks no pair, and one
// run past it by more than a tenth of its wall time marks its pair.
func TestForeignCPU(t *testing.T) {
	stat := "cpu  100 20 30 4000 50 6 7 8 900 1000\ncpu0 50 10 15 2000 25 3 3 4 450 500\n"
	if got, err := parseBusy([]byte(stat)); err != nil || got != 1710*time.Millisecond {
		t.Errorf("parseBusy = %v, %v; want 1.71s (100+20+30+6+7+8 ticks)", got, err)
	}
	if _, err := parseBusy([]byte("intr 1 2 3\n")); err == nil {
		t.Error("parseBusy accepted a first line that is not the cpu total")
	}

	defer func(f func() (time.Duration, error)) { hostBusy = f }(hostBusy)
	reads := []time.Duration{100 * time.Second, 103 * time.Second}
	hostBusy = func() (time.Duration, error) {
		d := reads[0]
		reads = reads[1:]
		return d, nil
	}
	r, err := runOnce(t.TempDir(), "sh", []string{"-c", `echo '{"failed": 0, "metrics": {}}'`})
	if err != nil {
		t.Fatal(err)
	}
	if !r.known || r.foreign <= 2900*time.Millisecond || r.foreign > 3*time.Second || !r.contended(0) {
		t.Errorf("runOnce measured foreign %v (known %v, wall %v, contended %v); want just under 3s, contended",
			r.foreign, r.known, r.wall, r.contended(0))
	}

	hostBusy = func() (time.Duration, error) { return 0, fs.ErrNotExist }
	if r, err := runOnce(t.TempDir(), "sh", []string{"-c", `echo '{}'`}); err != nil || r.known || r.contended(0) {
		t.Errorf("with the host unreadable, runOnce = %+v, %v; want the foreign time unknown", r, err)
	}

	// Ten 10 s pairs that all read 1.2 s, past 10 % of the wall time: the
	// tick-sampling bias of an idle host, which marks nothing. Then pair 4's
	// new run reads 2.3 s, 1.1 s past the median.
	run := result{wall: 10 * time.Second, foreign: 1200 * time.Millisecond, known: true}
	parent, change := make([]result, 10), make([]result, 10)
	for i := range parent {
		parent[i], change[i] = run, run
	}
	marks := func() string {
		var out bytes.Buffer
		reportContention(&out, parent, change)
		_, after, _ := strings.Cut(out.String(), "wall time): ")
		return strings.TrimSpace(after)
	}
	if got := marks(); got != "none" {
		t.Errorf("a uniform bias marked pairs %s; want none", got)
	}
	change[3].foreign = 2300 * time.Millisecond
	if got := marks(); got != "4" {
		t.Errorf("one contended run marked pairs %s; want 4", got)
	}
}
