// Command benchab runs the A/B protocol a performance claim is judged by:
// the unmodified BENCHMARK.json command on a base commit and on the working
// tree, in alternating pairs, reported per end-to-end metric.
//
//	benchab -base <git ref> -workload <name> [-pairs 10] [-seed 1]
//
// (`make bench-ab BASE=… W=… [PAIRS=…] [SEED=…]`.) Both sides are frozen
// before the first pair: the base is exported with `git archive` into
// .bench_build/ab-base/, and the working tree — its tracked files as they
// are on disk and its untracked files that no ignore rule covers — is copied
// into .bench_build/ab-head/, so an edit made during a series reaches
// neither side. Each side builds what it runs from its own copy. The header
// names both: the base's commit, the working tree's HEAD, and a SHA-256 of
// each copy's files (equal digests mean an A/A run). Even pairs run the base
// first, odd pairs the working tree. For every end-to-end metric of
// BENCHMARK.json it prints both sides' medians with quartiles, the change of
// the median in percent and in how many pairs the working tree read better
// (ties count for neither), and a verdict by the rules a claim is judged by:
// "gain" when there are at least ten pairs, the working tree read better in
// at least nine of ten, and its median moved the better way by more than the
// base's interquartile range; "worse" when its median is worse than the
// base's by more than the metric's bound in BENCHMARK.json; otherwise none.
// Then it prints both sides' failed checks and whether cut_mean,
// imbalance_mean and migrated_frac — deterministic counts — were equal in
// every run. Last it prints how much CPU time other processes took from the
// host during each side's runs — the busy time /proc/stat counts over a run
// less the run's own CPU time — and marks the pairs in which a run's reading
// passed the median of all the series' readings by more than contendedShare
// of its wall time: their timings are suspect.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchmarkFile is what benchab reads of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	EndToEnd   []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // the largest admissible worsening of the median, as a fraction
}

// result is the one-line JSON object a benchmark run ends with, and what
// runOnce measured around the run.
type result struct {
	Failed  int `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`

	wall    time.Duration
	foreign time.Duration // host CPU time the run did not spend itself
	known   bool          // whether foreign was measured
}

// contendedShare is the foreign CPU time above the series' median reading, as
// a share of a run's wall time, past which the run is marked: other work kept
// a tenth of one core busy throughout. The benchmark's ranks outnumber the
// cores, so whatever else ran took its time from them. The reading is taken
// relative to the median because /proc/stat samples in ticks, and the
// sampling misses or overcounts a workload-dependent amount of the run's own
// time: with nothing else running, a 10 s run of one workload read about
// +0.7 s on both sides, and another about −0.1 s. Both sides run the same
// workload alternately, so the median of all 2n readings holds that bias and
// an idle host marks nothing; it cannot flag contention that lasts through
// more than half of the series' runs.
const contendedShare = 0.10

// contended reports whether r's foreign CPU time passed base, the series'
// median reading, by more than contendedShare of its wall time.
func (r result) contended(base time.Duration) bool {
	return r.known && (r.foreign-base).Seconds() > contendedShare*r.wall.Seconds()
}

// hostBusy returns the CPU time the host's processors have been busy so far.
// It is a variable so that tests can fake the host.
var hostBusy = func() (time.Duration, error) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseBusy(stat)
}

// parseBusy reads the busy time off the text of /proc/stat: the fields of its
// "cpu" line, in USER_HZ ticks (100 a second), other than idle and iowait
// (the 4th and 5th) and guest and guest_nice (the 9th and 10th, which user
// and nice already include). Steal time counts as busy: another guest had
// the processor.
func parseBusy(stat []byte) (time.Duration, error) {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	fields := strings.Fields(string(line))
	if len(fields) < 5 || fields[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat: first line %q is not the cpu total", line)
	}
	var ticks int64
	for i, f := range fields[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/stat: %w", err)
		}
		if i != 3 && i != 4 && i != 8 && i != 9 {
			ticks += n
		}
	}
	return time.Duration(ticks) * (time.Second / 100), nil
}

// countMetrics are decided by the partitioner, not by the clock: any
// difference between or within the sides is a behaviour change.
var countMetrics = []string{"cut_mean", "imbalance_mean", "migrated_frac"}

func main() {
	base := flag.String("base", "", "git ref of the base commit (required)")
	workload := flag.String("workload", "", "BENCHMARK.json workload name (required)")
	pairs := flag.Int("pairs", 10, "alternating base / working-tree pairs")
	seed := flag.Int("seed", 1, "workload seed")
	flag.Parse()
	if *base == "" || *workload == "" || *pairs < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchab -base <git ref> -workload <name> [-pairs 10] [-seed 1]")
		os.Exit(2)
	}
	if err := run(os.Stdout, *base, *workload, *pairs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, base, workload string, pairs, seed int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bf.Command) == 0 {
		return fmt.Errorf("BENCHMARK.json names no command")
	}
	// side 0 is the base, side 1 the working tree
	dirs := [2]string{filepath.Join(".bench_build", "ab-base"), filepath.Join(".bench_build", "ab-head")}
	if err := exportRef(".", base, dirs[0]); err != nil {
		return err
	}
	if err := exportWorkTree(".", dirs[1]); err != nil {
		return err
	}
	baseCommit, err := gitOutput(".", "rev-parse", "--verify", base+"^{commit}")
	if err != nil {
		return err
	}
	head, err := gitOutput(".", "rev-parse", "--verify", "HEAD")
	if err != nil {
		return err
	}
	var sums [2]string
	for k, dir := range dirs {
		if sums[k], err = digest(dir); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "# base %s: commit %s, files sha256 %s\n", base, baseCommit, sums[0])
	fmt.Fprintf(w, "# new  working tree of commit %s, files sha256 %s\n", head, sums[1])
	args := append(append([]string(nil), bf.Command[1:]...),
		"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
	var runs [2][]result
	for i := 0; i < pairs; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2
			r, err := runOnce(dirs[side], bf.Command[0], args)
			if err != nil {
				return fmt.Errorf("pair %d in %s: %w", i+1, dirs[side], err)
			}
			runs[side] = append(runs[side], r)
		}
	}
	report(w, workload, bf.EndToEnd, runs[0], runs[1])
	return nil
}

// gitOutput runs git in repo and returns its output, trimmed.
func gitOutput(repo string, args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("git", args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = repo, &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(stdout.String()), nil
}

// emptyDir replaces dir with an empty directory.
func emptyDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// exportRef replaces dir with the tree of the git ref of repository repo.
func exportRef(repo, ref, dir string) error {
	if err := emptyDir(dir); err != nil {
		return err
	}
	var tree, stderr bytes.Buffer
	archive := exec.Command("git", "archive", "--format=tar", ref)
	archive.Dir, archive.Stdout, archive.Stderr = repo, &tree, &stderr
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w: %s", ref, err, strings.TrimSpace(stderr.String()))
	}
	untar := exec.Command("tar", "-x", "-C", dir)
	untar.Stdin, untar.Stderr = &tree, &stderr
	if err := untar.Run(); err != nil {
		return fmt.Errorf("unpacking %s into %s: %w: %s", ref, dir, err, strings.TrimSpace(stderr.String()))
	}
	return nil
}

// exportWorkTree replaces dir with a copy of the files of repo's working
// tree that git sees: the tracked ones as they are on disk, the untracked
// ones that no ignore rule covers. A tracked file deleted from the disk is
// left out, as a commit of the tree would leave it.
func exportWorkTree(repo, dir string) error {
	list, err := gitOutput(repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard", "--deduplicate")
	if err != nil {
		return err
	}
	if err := emptyDir(dir); err != nil {
		return err
	}
	for _, name := range strings.Split(list, "\x00") {
		if name == "" {
			continue
		}
		src, dst := filepath.Join(repo, name), filepath.Join(dir, name)
		info, err := os.Lstat(src)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		} else if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		switch {
		case info.Mode()&fs.ModeSymlink != 0:
			target, err := os.Readlink(src)
			if err == nil {
				err = os.Symlink(target, dst)
			}
			if err != nil {
				return err
			}
		case info.Mode().IsRegular():
			data, err := os.ReadFile(src)
			if err == nil {
				err = os.WriteFile(dst, data, info.Mode().Perm())
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// digest is the SHA-256 of the files under dir, in lexical path order: each
// one's path, its executable bit and its content (a symlink's target). Two
// directories holding the same files read the same digest; it is printed in
// hex, its first 16 digits.
func digest(dir string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		var data []byte
		if info.Mode()&fs.ModeSymlink != 0 {
			var target string
			target, err = os.Readlink(path)
			data = []byte(target)
		} else {
			data, err = os.ReadFile(path)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%v\x00%d\x00", filepath.ToSlash(rel), info.Mode()&0o111 != 0, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16], nil
}

// runOnce runs the benchmark command in dir and parses the JSON object on
// the last line of its output. Around the run it reads the host's busy CPU
// time; what the run and the processes it waited for did not spend of it is
// the run's foreign CPU time. Where the host cannot be read it is unknown.
func runOnce(dir, name string, args []string) (result, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	busy0, err0 := hostBusy()
	start := time.Now()
	out, err := cmd.Output()
	wall := time.Since(start)
	busy1, err1 := hostBusy()
	if err != nil {
		return result{}, fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("last output line is not the result object: %w", err)
	}
	r.wall, r.known = wall, err0 == nil && err1 == nil
	if r.known {
		r.foreign = busy1 - busy0 - cmd.ProcessState.UserTime() - cmd.ProcessState.SystemTime()
	}
	return r, nil
}

// quartiles returns the first quartile, median and third quartile of xs by
// linear interpolation between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// report prints the table; parent[i] and change[i] are the two runs of pair i.
func report(w io.Writer, workload string, metrics []metric, parent, change []result) {
	failed := func(rs []result) (n int) {
		for _, r := range rs {
			n += r.Failed
		}
		return n
	}
	n := len(parent)
	fmt.Fprintf(w, "## %s  pairs=%d failed_checks parent=%d new=%d\n", workload, n, failed(parent), failed(change))
	for _, m := range metrics {
		ps, cs := make([]float64, n), make([]float64, n)
		better := 0
		for i := range parent {
			ps[i], cs[i] = parent[i].Metrics[m.Name].Value, change[i].Metrics[m.Name].Value
			if (m.Better == "higher" && cs[i] > ps[i]) || (m.Better != "higher" && cs[i] < ps[i]) {
				better++
			}
		}
		p1, pm, p3 := quartiles(ps)
		c1, cm, c3 := quartiles(cs)
		gain := cm - pm // the change of the median, signed so that > 0 is better
		if m.Better != "higher" {
			gain = -gain
		}
		verdict := ""
		switch {
		case n >= 10 && 10*better >= 9*n && gain > p3-p1:
			verdict = "  gain"
		case -gain > m.Bound*math.Abs(pm):
			verdict = "  worse"
		}
		fmt.Fprintf(w, "  %-15s parent %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  %+.1f%%  better in %d/%d%s\n",
			m.Name, pm, p1, p3, cm, c1, c3, 100*(cm-pm)/pm, better, n, verdict)
	}
	equal := true
	for _, name := range countMetrics {
		for i := range parent {
			// Counts are deterministic: both sides print the same digits or the partitioner changed.
			if parent[i].Metrics[name].Value != parent[0].Metrics[name].Value || change[i].Metrics[name].Value != parent[0].Metrics[name].Value {
				equal = false
			}
		}
	}
	fmt.Fprintf(w, "  counts (%s) equal in all %d runs: %v\n", strings.Join(countMetrics, ", "), 2*n, equal)
	reportContention(w, parent, change)
}

// reportContention prints each side's foreign CPU seconds, median with
// quartiles, and the pairs in which either run was contended against the
// median of both sides' readings.
func reportContention(w io.Writer, parent, change []result) {
	var sides [2][]float64
	for i := range parent {
		for k, r := range [2]result{parent[i], change[i]} {
			if !r.known {
				fmt.Fprintln(w, "  foreign CPU: unknown, the host's busy time could not be read")
				return
			}
			sides[k] = append(sides[k], r.foreign.Seconds())
		}
	}
	_, all, _ := quartiles(append(sides[0], sides[1]...))
	base := time.Duration(all * float64(time.Second))
	var marked []string
	for i := range parent {
		if parent[i].contended(base) || change[i].contended(base) {
			marked = append(marked, strconv.Itoa(i+1))
		}
	}
	if len(marked) == 0 {
		marked = []string{"none"}
	}
	p1, pm, p3 := quartiles(sides[0])
	c1, cm, c3 := quartiles(sides[1])
	fmt.Fprintf(w, "  foreign CPU s   parent %.3g [%.3g, %.3g]  new %.3g [%.3g, %.3g]  contended pairs (over the median %.3g by %.0f%% of a run's wall time): %s\n",
		pm, p1, p3, cm, c1, c3, all, 100*contendedShare, strings.Join(marked, ", "))
}
