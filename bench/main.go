// Command bench is the PARED cycle benchmark: it drives the distributed
// engine through seven named workloads on 8 goroutine ranks, verifies what
// they produce, and prints every end-to-end and per-layer metric by name with
// its unit. All layers are measured from outside, by timing calls into their
// public functions. README.md in this directory explains every number.
//
//	go run ./bench                          # all workloads, timed reps + traced pass
//	go run ./bench -workload growth3d_sfc   # one workload
//	go run ./bench -seed 7                  # another instance of the same inputs
//	go run ./bench -selfcheck               # A/A: two runs, compared against the bounds
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   # the BENCHMARK.json contract
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload  string
	seed      int64
	reps      int
	seconds   float64
	trace     int
	selfcheck bool
	jsonPath  string
	traceDir  string
	contract  bool
}

// minReps is the fewest timed reps (instances) an end-to-end number is taken
// over, and minTraceReps the fewest the tracing overhead is measured against.
const (
	minReps      = countInstances
	minTraceReps = 3
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all seven)")
	flag.Int64Var(&o.seed, "seed", 1, "input instance; 1 is the paper's geometry")
	flag.IntVar(&o.reps, "reps", 5, "timed reps per workload when -seconds is 0")
	flag.Float64Var(&o.seconds, "seconds", 0, "fill this many seconds with timed reps instead of counting -reps")
	flag.IntVar(&o.trace, "trace", -1, "0: the end-to-end pass only; 1: the traced pass and the layer probes only; -1: both")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run everything twice and compare the two runs against the bounds")
	flag.StringVar(&o.jsonPath, "json", "", "also write the full report to this file")
	flag.StringVar(&o.traceDir, "tracedir", filepath.Join("bench", "out"), "where trace-<workload>.jsonl goes")
	flag.BoolVar(&o.contract, "contract", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if o.contract {
		printContract(os.Stdout)
		return
	}
	selected := workloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			fatalf("unknown workload %q", o.workload)
		}
		selected = []workload{*w}
	}
	if o.jsonPath != "" && o.seconds <= 0 && o.reps < minTraceReps {
		fatalf("a report written to a file needs -reps >= %d: a number from fewer is not a record", minTraceReps)
	}
	if o.seconds <= 0 && o.reps < 1 {
		fatalf("-reps must be at least 1")
	}

	start := time.Now()
	hdr := newHeader(o)
	hdr.print()

	a := runAll(selected, o)
	ok := a.print(o)
	if o.selfcheck {
		fmt.Println("\n== selfcheck: second run of the same binary ==")
		b := runAll(selected, o)
		ok = b.print(o) && ok
		ok = compareRuns(a, b) && ok
	}
	hdr.TotalSeconds = time.Since(start).Seconds()
	fmt.Printf("\ntotal run time %.1f s\n", hdr.TotalSeconds)
	if o.jsonPath != "" {
		a.Header = hdr
		if err := writeJSON(o.jsonPath, a); err != nil {
			fatalf("%v", err)
		}
	}
	if o.workload != "" && !o.selfcheck {
		a.Workloads[0].printResultLine(o.trace == 1)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// header is the run's honesty record: what the numbers were measured on.
type header struct {
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Ranks          int     `json:"ranks"`
	Oversubscribed bool    `json:"oversubscribed"`
	GoVersion      string  `json:"go_version"`
	OSArch         string  `json:"os_arch"`
	GOGC           string  `json:"gogc"`
	Seed           int64   `json:"seed"`
	Reps           int     `json:"reps"`
	Seconds        float64 `json:"seconds"`
	Commit         string  `json:"git_commit"`
	TotalSeconds   float64 `json:"total_seconds"`
}

// newHeader also pins GOMAXPROCS = min(nproc, 4), so that a bigger machine
// does not silently change what "8 ranks" means.
func newHeader(o options) header {
	n := runtime.NumCPU()
	procs := n
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return header{
		NProc: n, GOMAXPROCS: procs, Ranks: benchRanks, Oversubscribed: benchRanks > procs,
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH, GOGC: gogc,
		Seed: o.seed, Reps: o.reps, Seconds: o.seconds, Commit: commit,
	}
}

func (h header) print() {
	fmt.Printf("PARED cycle benchmark: nproc=%d GOMAXPROCS=%d ranks=%d oversubscribed=%v %s %s GOGC=%s seed=%d commit=%s\n",
		h.NProc, h.GOMAXPROCS, h.Ranks, h.Oversubscribed, h.GoVersion, h.OSArch, h.GOGC, h.Seed, h.Commit)
	if h.Oversubscribed {
		fmt.Println("oversubscribed: the ranks time-slice the cores, so no number below is a parallel speed and no scaling metric is emitted")
	}
	if h.Seconds > 0 {
		fmt.Printf("closed loop, one driver; 1 warm-up rep + timed reps filling %.0f s (at least %d), each rep another instance of the seed\n", h.Seconds, minReps)
	} else {
		fmt.Printf("closed loop, one driver; 1 warm-up rep + %d timed reps, each rep another instance of the seed\n", h.Reps)
	}
}

// workloadReport is everything one workload produced in one run.
type workloadReport struct {
	Name         string    `json:"name"`
	Reps         int       `json:"reps"`
	EpochSamples int       `json:"epoch_samples"`
	EndToEnd     metricSet `json:"end_to_end"`
	PerLayer     metricSet `json:"per_layer,omitempty"`
	Attempted    int       `json:"checks_attempted"`
	Failed       int       `json:"checks_failed"`
	Failures     []string  `json:"failures,omitempty"`
	TraceFile    string    `json:"trace_file,omitempty"`
	hung         bool
}

type runReport struct {
	Header    header            `json:"header"`
	Workloads []*workloadReport `json:"workloads"`
}

func runAll(selected []workload, o options) *runReport {
	var micro metricSet
	if o.trace != 0 {
		micro = microProbes()
	}
	rep := &runReport{}
	for i := range selected {
		wr := runWorkload(&selected[i], o, micro)
		rep.Workloads = append(rep.Workloads, wr)
		if wr.hung {
			break // the hung ranks still hold the cores; nothing after this is a measurement
		}
	}
	return rep
}

// add counts a rep's checks into the report and says whether the rep ran.
func (wr *workloadReport) add(res *repResult) bool {
	wr.Attempted += res.attempted
	wr.Failed += res.failed
	wr.Failures = append(wr.Failures, res.failures...)
	wr.hung = wr.hung || res.err == errDeadline
	return res.err == nil
}

// enough says whether a pass that began at began and has n reps may stop:
// with -seconds once its budget is used and at least floor reps are in,
// otherwise after reps reps.
func (o options) enough(n, floor, reps int, began time.Time, budget float64) bool {
	if o.seconds > 0 {
		return n >= floor && time.Since(began).Seconds() >= budget
	}
	return n >= reps
}

func runWorkload(w *workload, o options, micro metricSet) *workloadReport {
	wr := &workloadReport{Name: w.name}
	if o.trace != 1 && !measure(w, o, wr) {
		return wr
	}
	if o.trace != 0 {
		tracePass(w, o, micro, wr)
	}
	return wr
}

// measure is the end-to-end pass: a warm-up rep on instance 0, then timed
// reps, each on the next instance of the seed. The first timed rep repeats
// the warm-up's instance and must reproduce it.
func measure(w *workload, o options, wr *workloadReport) bool {
	warm := runRep(w, geometryFor(o.seed, 0), 0, nil)
	if !wr.add(warm) {
		return false
	}
	var timed []*repResult
	for began := time.Now(); !o.enough(len(timed), minReps, o.reps, began, o.seconds); {
		res := runRep(w, geometryFor(o.seed, len(timed)), 1+len(timed), nil)
		if len(timed) == 0 {
			res.sameAs(warm)
		}
		if !wr.add(res) {
			return false
		}
		timed = append(timed, res)
	}
	wr.Reps = len(timed)
	wr.EndToEnd, wr.EpochSamples = endToEndMetrics(timed)
	return true
}

// tracePass is the per-layer pass, all of it on instance 0: a warm-up rep, a
// few untraced reps as the base the tracing overhead is measured against,
// then one rep with spans on and the prober between its epochs. Every rep
// must reproduce the first.
func tracePass(w *workload, o options, micro metricSet, wr *workloadReport) {
	geo := geometryFor(o.seed, 0)
	ref := runRep(w, geo, 0, nil)
	if !wr.add(ref) {
		return
	}
	var base []float64
	for began := time.Now(); !o.enough(len(base), minTraceReps, min(o.reps, minTraceReps), began, o.seconds/2); {
		res := runRep(w, geo, 1+len(base), nil)
		res.sameAs(ref)
		if !wr.add(res) {
			return
		}
		base = append(base, float64(res.wallNs())/nsPerS)
	}
	pr := newProber(w, geo)
	res := runRep(w, geo, 1+len(base), pr)
	res.sameAs(ref)
	if !wr.add(res) {
		return
	}
	wr.PerLayer = perLayerMetrics(w, res, pr, micro, midMean(base))
	wr.TraceFile = filepath.Join(o.traceDir, "trace-"+w.name+".jsonl")
	if err := writeTrace(wr.TraceFile, res.spans); err != nil {
		fatalf("%v", err)
	}
}

func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes the human-readable report and says whether every check of
// every workload passed.
func (r *runReport) print(o options) bool {
	ok := true
	for _, wr := range r.Workloads {
		if wr.EndToEnd != nil {
			fmt.Printf("\n== %s: seed %d, %d timed reps ==\n", wr.Name, o.seed, wr.Reps)
		} else {
			fmt.Printf("\n== %s: seed %d, traced pass only ==\n", wr.Name, o.seed)
		}
		for _, d := range endToEnd {
			if v, have := wr.EndToEnd[d.Name]; have {
				note := ""
				if strings.HasPrefix(d.Name, "epoch_p") {
					note = fmt.Sprintf("  (%d epoch samples)", wr.EpochSamples)
				}
				fmt.Printf("  %-28s %14.6g %-8s bound %2.0f %%%s\n", d.Name, v.Value, v.Unit, 100*d.Bound, note)
			}
		}
		frac := 0.0
		if wr.Attempted > 0 {
			frac = float64(wr.Failed) / float64(wr.Attempted)
		}
		fmt.Printf("  %-28s %14.6g %-8s (%d of %d checks failed)\n", "check_fail_frac", frac, "ratio", wr.Failed, wr.Attempted)
		for _, f := range wr.Failures {
			fmt.Printf("  FAILED: %s\n", f)
		}
		if wr.PerLayer != nil {
			fmt.Printf("  -- traced pass (spans in %s) --\n", wr.TraceFile)
			for _, d := range perLayer {
				v := wr.PerLayer[d.Name]
				fmt.Printf("  %-28s %14.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
		if wr.hung {
			fmt.Println("  a rep hung: this workload's remaining reps and every later workload were not run")
		}
		ok = ok && wr.Failed == 0 && wr.Attempted > 0
	}
	return ok
}

// printResultLine prints the one JSON object the BENCHMARK.json contract
// asks for as the last line of standard output.
func (wr *workloadReport) printResultLine(traced bool) {
	metrics := wr.EndToEnd
	if traced {
		metrics = wr.PerLayer
	}
	line := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{wr.Failed == 0 && metrics != nil, wr.Attempted, wr.Failed, metrics}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

// compareRuns is the A/A test: two runs of one binary must agree within each
// end-to-end metric's bound, and exactly on every count.
func compareRuns(a, b *runReport) bool {
	ok := true
	fmt.Println("\n== selfcheck: run A vs run B ==")
	fmt.Printf("%-18s %-28s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "rel.diff", "bound")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		row := func(d metricDef, va, vb value, bound float64) {
			rel := 0.0
			if den := math.Max(math.Abs(va.Value), math.Abs(vb.Value)); den > 0 {
				rel = math.Abs(vb.Value-va.Value) / den
			}
			verdict := ""
			if d.count && rel > 0 || !d.count && bound > 0 && rel > bound {
				verdict = "  DIFFERS"
				ok = false
			}
			limit := "-"
			if d.count {
				limit = "exact"
			} else if bound > 0 {
				limit = fmt.Sprintf("%.0f %%", 100*bound)
			}
			fmt.Printf("%-18s %-28s %14.6g %14.6g %8.2f%% %7s%s\n", wa.Name, d.Name, va.Value, vb.Value, 100*rel, limit, verdict)
		}
		for _, d := range endToEnd {
			row(d, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name], d.Bound)
		}
		if wa.PerLayer != nil && wb.PerLayer != nil {
			for _, d := range perLayer {
				if d.count {
					row(d, wa.PerLayer[d.Name], wb.PerLayer[d.Name], 0)
				}
			}
		}
	}
	if ok {
		fmt.Println("selfcheck: the two runs agree")
	} else {
		fmt.Println("selfcheck: the two runs DIFFER")
	}
	return ok
}

// printContract writes BENCHMARK.json from the tables in this package, so
// the file and the program cannot name different metrics.
func printContract(out *os.File) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	c := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // no bounds: the zero Bound is omitted
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintln(out, string(b))
}

// runSeconds is BENCHMARK.json's run_seconds: what the driver passes as
// --seconds.
const runSeconds = 10
