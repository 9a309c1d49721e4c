package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pared/internal/forest"
	"pared/internal/pared"
)

var (
	microOnce sync.Once
	microSet  metricSet
)

// testMicro runs the par/kern probes once for the whole test binary.
func testMicro() metricSet {
	microOnce.Do(func() { microSet = microProbes() })
	return microSet
}

func runShrunk(t *testing.T, w workload, seed int64) *workloadReport {
	t.Helper()
	w = w.shrunk()
	wr := runWorkload(&w, options{seed: seed, reps: 1, trace: -1, traceDir: t.TempDir()}, testMicro())
	if wr.Failed != 0 || wr.Attempted == 0 {
		t.Fatalf("%s: %d of %d checks failed: %v", w.name, wr.Failed, wr.Attempted, wr.Failures)
	}
	return wr
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		wr := runShrunk(t, w, 1)
		for _, set := range []struct {
			defs []metricDef
			got  metricSet
		}{{endToEnd, wr.EndToEnd}, {perLayer, wr.PerLayer}} {
			if len(set.got) != len(set.defs) {
				t.Errorf("%s: %d metrics emitted, %d declared", w.name, len(set.got), len(set.defs))
			}
			seen := map[string]bool{}
			for _, d := range set.defs {
				v, ok := set.got[d.Name]
				switch {
				case seen[d.Name]:
					t.Errorf("metric %s declared twice", d.Name)
				case !ok:
					t.Errorf("%s: metric %s not emitted", w.name, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, d.Name, v.Value)
				case v.Unit == "" || v.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, declared %q", w.name, d.Name, v.Unit, d.Unit)
				case !nameRE.MatchString(d.Name) || len(d.Name) > 64:
					t.Errorf("metric name %q is outside the contract", d.Name)
				}
				seen[d.Name] = true
			}
		}
		for _, d := range endToEnd {
			if wr.EndToEnd[d.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0; the contract wants metrics that never are", w.name, d.Name)
			}
		}
	}
}

// TestContractFileMatchesTables pins BENCHMARK.json to the tables the
// program reports from.
func TestContractFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != runSeconds || len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("run_seconds %d paths %v", c.RunSeconds, c.Paths)
	}
	if len(c.Workloads) != len(workloads) || len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d/%d workloads/end-to-end/per-layer, the tables %d/%d/%d; regenerate it with go run ./bench -contract",
			len(c.Workloads), len(c.EndToEnd), len(c.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: file has %q, table %q (why: %d chars)", i, c.Workloads[i].Name, w.name, len(w.why))
		}
	}
	setup := false
	for i, d := range endToEnd {
		f := c.EndToEnd[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better || f.Bound != d.Bound {
			t.Errorf("end-to-end %d: file has %+v, table %+v", i, f, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range perLayer {
		f := c.PerLayer[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
			t.Errorf("per-layer %d: file has %+v, table %+v", i, f, d)
		}
	}
}

// counts extracts the metrics that a deterministic program must repeat
// exactly.
func counts(wr *workloadReport) map[string]float64 {
	out := map[string]float64{}
	for _, d := range endToEnd {
		if d.count {
			out[d.Name] = wr.EndToEnd[d.Name].Value
		}
	}
	for _, d := range perLayer {
		if d.count {
			out[d.Name] = wr.PerLayer[d.Name].Value
		}
	}
	return out
}

func TestCountsRepeatExactly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range workloads {
		runtime.GOMAXPROCS(2)
		a := counts(runShrunk(t, w, 2))
		b := counts(runShrunk(t, w, 2))
		runtime.GOMAXPROCS(1)
		c := counts(runShrunk(t, w, 2))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: counts differ between two runs:\n%v\n%v", w.name, a, b)
		}
		if !reflect.DeepEqual(a, c) {
			t.Errorf("%s: counts differ between GOMAXPROCS 2 and 1:\n%v\n%v", w.name, a, c)
		}
	}
}

func TestSeedChangesTheInputs(t *testing.T) {
	if g := geometryFor(1, 0); g != (geometry{}) {
		t.Errorf("instance 0 of seed 1 must be the paper's geometry, got %+v", g)
	}
	if geometryFor(2, 0) == geometryFor(3, 0) || geometryFor(2, 0) == geometryFor(2, 1) || geometryFor(2, 1) != geometryFor(2, 1) {
		t.Error("geometry must be a function of seed and instance, and differ between them")
	}
	w := *findWorkload("transient2d_sfc")
	a, b := counts(runShrunk(t, w, 1)), counts(runShrunk(t, w, 5))
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 5 produced identical counts: the seed does not reach the inputs")
	}
}

func TestSpanTreesAreWellFormed(t *testing.T) {
	for _, name := range []string{"transient2d_hier", "solvecycle2d_pnr"} {
		wr := runShrunk(t, *findWorkload(name), 1)
		f, err := os.Open(wr.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		byID := map[int]span{}
		var all []span
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatal(err)
			}
			if _, dup := byID[s.ID]; dup || s.ID == 0 {
				t.Fatalf("span id %d is zero or used twice", s.ID)
			}
			byID[s.ID] = s
			all = append(all, s)
		}
		f.Close()
		probes, calls := 0, 0
		for _, s := range all {
			if s.EndNs < s.StartNs {
				t.Errorf("%s: span %d ends before it starts", name, s.ID)
			}
			if strings.HasPrefix(s.Name, "probe.") {
				probes++
				if s.Parent != 0 || s.Rank != 0 {
					t.Errorf("%s: probe span %d has parent %d on rank %d", name, s.ID, s.Parent, s.Rank)
				}
				for _, e := range all {
					if e.Name == "epoch" && e.Rank == 0 && s.StartNs < e.EndNs && e.StartNs < s.EndNs {
						t.Errorf("%s: probe span %s [%d,%d] overlaps epoch %d [%d,%d]", name, s.Name, s.StartNs, s.EndNs, e.Epoch, e.StartNs, e.EndNs)
					}
				}
				continue
			}
			if s.Name == "rep" {
				if s.Parent != 0 {
					t.Errorf("%s: rep span %d has a parent", name, s.ID)
				}
				continue
			}
			p, ok := byID[s.Parent]
			if !ok {
				t.Errorf("%s: span %d (%s) names parent %d, which does not exist", name, s.ID, s.Name, s.Parent)
				continue
			}
			if p.Rank != s.Rank || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Errorf("%s: span %d (%s) [%d,%d] rank %d is not inside its parent %s [%d,%d] rank %d",
					name, s.ID, s.Name, s.StartNs, s.EndNs, s.Rank, p.Name, p.StartNs, p.EndNs, p.Rank)
			}
			if s.Name != "epoch" {
				calls++
			}
		}
		if probes == 0 || calls == 0 {
			t.Errorf("%s: %d probe spans and %d engine-call spans", name, probes, calls)
		}
	}
}

func TestCorruptedOwnerMapFailsACheck(t *testing.T) {
	w := findWorkload("transient2d_pnr").shrunk()
	m0 := w.mesh()
	input := func() *verifyInput {
		return &verifyInput{
			ranks: w.numRanks(), owner: make([]int32, m0.NumElems()), forest: forest.FromMesh(m0),
			numRoots: m0.NumElems(), globalLeaves: int64(m0.NumElems()),
		}
	}
	var clean, bad repResult
	clean.verify(input())
	if clean.failed != 0 || clean.attempted == 0 {
		t.Fatalf("a valid state fails %d of %d checks: %v", clean.failed, clean.attempted, clean.failures)
	}
	in := input()
	in.owner[3] = int32(w.numRanks())
	bad.verify(in)
	if bad.failed == 0 {
		t.Error("an owner outside [0, ranks) did not fail a check")
	}
	bad.sameAs(&clean)
	if bad.failed != 2 {
		t.Errorf("a different owner map must also fail the cross-rep hash check; %d checks failed: %v", bad.failed, bad.failures)
	}
}

// TestFailedRunFailsEveryCheck covers both ways a rep can die: every rank
// panicking (par.Run returns the error) and a hang (the deadline fires).
func TestFailedRunFailsEveryCheck(t *testing.T) {
	w := findWorkload("transient2d_hier").shrunk()
	w.cfg = pared.Config{Mode: pared.ModeHier, Topology: pared.Topology{Nodes: 3, CoresPerNode: 1}} // does not factor 4 ranks
	wr := runWorkload(&w, options{seed: 1, reps: 1, traceDir: t.TempDir()}, nil)
	if wr.Attempted == 0 || wr.Failed != wr.Attempted {
		t.Errorf("a panicking run failed %d of %d checks", wr.Failed, wr.Attempted)
	}

	defer func(d time.Duration) { repDeadline = d }(repDeadline)
	repDeadline = 50 * time.Millisecond
	block := make(chan struct{})
	defer close(block)
	if err := runWithDeadline(func() error { <-block; return nil }); !errors.Is(err, errDeadline) {
		t.Errorf("a hung rep returned %v", err)
	}
}
