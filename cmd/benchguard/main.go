// Command benchguard compares allocs/op of fresh `go test -bench -benchmem`
// runs against the committed BENCH_allocs.json and fails (exit 1) on
// regressions beyond the allowed fraction. CI runs it so a change that quietly
// reintroduces a per-operation allocation in a hot-path package is caught in
// review.
//
//	benchguard -baseline BENCH_allocs.json bench1.txt [bench2.txt ...]
//	benchguard -write-baseline BENCH_allocs.json bench1.txt
//
// Every benchmark in the baseline is guarded, and a zero-alloc baseline
// admits no allocations at all (a fraction of zero is still zero). Several
// candidate files may be given; each benchmark is scored by its best run
// (fewest allocs). A benchmark missing from every candidate fails, because a
// silently skipped benchmark must not look like a clean one. Wall time is not
// guarded here: that is BENCHMARK.json's job (bench/).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	baseline := flag.String("baseline", "BENCH_allocs.json", "committed baseline report")
	maxRegress := flag.Float64("max-regress", 0.20, "maximum allowed fractional regression")
	writeBaseline := flag.String("write-baseline", "", "write the parsed best-of-runs as a new baseline and exit")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: need at least one candidate report")
		os.Exit(2)
	}
	os.Exit(runAllocsGuard(*baseline, *writeBaseline, *maxRegress, flag.Args()))
}

// allocRecord is one benchmark's allocation budget in BENCH_allocs.json.
type allocRecord struct {
	Name        string `json:"name"`          // pkg-qualified, e.g. pared/internal/la.BenchmarkDot
	AllocsPerOp int64  `json:"allocs_per_op"` // best of the baseline runs
}

type allocReport struct {
	Records []allocRecord `json:"records"`
}

// benchLineRE matches one `go test -bench -benchmem` result line:
//
//	BenchmarkDot-8   12345   987 ns/op   120.5 MB/s   0 B/op   0 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped so baselines transfer across
// machines; extra metric columns (MB/s, custom b.ReportMetric units) may sit
// between ns/op and the allocs column; benchmarks without -benchmem columns
// are skipped.
var benchLineRE = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+[0-9.]+ ns/op(?:\s+[0-9.]+ \S+)*\s+([0-9]+) allocs/op`)

// parseBenchAllocs extracts pkg-qualified allocs/op from -benchmem text
// output. `pkg:` header lines qualify the benchmark names that follow them.
func parseBenchAllocs(text string) map[string]int64 {
	out := make(map[string]int64)
	pkg := ""
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		m := benchLineRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		name := m[1]
		if pkg != "" {
			name = pkg + "." + name
		}
		if old, ok := out[name]; !ok || n < old {
			out[name] = n
		}
	}
	return out
}

// runAllocsGuard is the guard; it returns the process exit code.
func runAllocsGuard(baseline, writeBaseline string, maxRegress float64, candidates []string) int {
	best := make(map[string]int64)
	for _, path := range candidates {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			return 2
		}
		for name, n := range parseBenchAllocs(string(data)) {
			if old, ok := best[name]; !ok || n < old {
				best[name] = n
			}
		}
	}
	if len(best) == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no -benchmem result lines in any candidate file")
		return 2
	}

	if writeBaseline != "" {
		var rep allocReport
		for name, n := range best {
			rep.Records = append(rep.Records, allocRecord{Name: name, AllocsPerOp: n})
		}
		sort.Slice(rep.Records, func(i, j int) bool { return rep.Records[i].Name < rep.Records[j].Name })
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			return 2
		}
		if err := os.WriteFile(writeBaseline, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			return 2
		}
		fmt.Printf("benchguard: wrote %d alloc records to %s\n", len(rep.Records), writeBaseline)
		return 0
	}

	data, err := os.ReadFile(baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		return 2
	}
	var base allocReport
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", baseline, err)
		return 2
	}

	failed := false
	for _, r := range base.Records {
		cand, ok := best[r.Name]
		if !ok {
			fmt.Printf("benchguard: %-46s MISSING from candidate runs\n", r.Name)
			failed = true
			continue
		}
		verdict := "ok"
		switch {
		case r.AllocsPerOp == 0 && cand > 0:
			// A zero-alloc baseline is a contract, not a quantity: 20% of
			// zero is zero, so any allocation is a regression.
			verdict = "REGRESSION (baseline is allocation-free)"
			failed = true
		case r.AllocsPerOp > 0 && float64(cand) > float64(r.AllocsPerOp)*(1+maxRegress):
			verdict = fmt.Sprintf("REGRESSION (limit +%.0f%%)", maxRegress*100)
			failed = true
		}
		fmt.Printf("benchguard: %-46s baseline %6d allocs/op  candidate %6d  %s\n",
			r.Name, r.AllocsPerOp, cand, verdict)
	}
	if failed {
		return 1
	}
	return 0
}
