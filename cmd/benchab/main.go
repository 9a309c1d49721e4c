// Command benchab runs the A/B protocol a performance claim is judged by:
// the unmodified BENCHMARK.json command on a base commit and on the working
// tree, in alternating pairs, reported per end-to-end metric.
//
//	benchab -base <git ref> -workload <name> [-pairs 10] [-seed 1]
//
// (`make bench-ab BASE=… W=… [PAIRS=…] [SEED=…]`.) The base is exported with
// `git archive` into .bench_build/ab-base/, so both sides build what they run
// from their own sources; even pairs run the base first, odd pairs the
// working tree. For every end-to-end metric of BENCHMARK.json it prints both
// sides' medians with quartiles, the change of the median in percent and in
// how many pairs the working tree read better (ties count for neither); then
// both sides' failed checks and whether cut_mean, imbalance_mean and
// migrated_frac — deterministic counts — were equal in every run. It judges
// nothing: the bounds and the nine-in-ten rule are the reader's to apply.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is what benchab reads of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	EndToEnd   []metric `json:"end_to_end"`
}

type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"` // "lower" or "higher"
}

// result is the one-line JSON object a benchmark run ends with.
type result struct {
	Failed  int `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
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
	baseDir := filepath.Join(".bench_build", "ab-base")
	if err := exportRef(base, baseDir); err != nil {
		return err
	}
	args := append(append([]string(nil), bf.Command[1:]...),
		"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
	dirs := [2]string{baseDir, "."} // side 0 is the base, side 1 the working tree
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

// exportRef replaces dir with the tree of the git ref.
func exportRef(ref, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var tree, stderr bytes.Buffer
	archive := exec.Command("git", "archive", "--format=tar", ref)
	archive.Stdout, archive.Stderr = &tree, &stderr
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

// runOnce runs the benchmark command in dir and parses the JSON object on
// the last line of its output.
func runOnce(dir, name string, args []string) (result, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("last output line is not the result object: %w", err)
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
		fmt.Fprintf(w, "  %-15s parent %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  %+.1f%%  better in %d/%d\n",
			m.Name, pm, p1, p3, cm, c1, c3, 100*(cm-pm)/pm, better, n)
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
}
