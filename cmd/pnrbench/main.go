// Command pnrbench regenerates the paper's tables and figures.
//
// Usage:
//
//	pnrbench -exp all            # everything, paper scale (minutes)
//	pnrbench -exp fig3 -quick    # one experiment at test scale (seconds)
//	pnrbench -exp transient -svg out/
//	pnrbench -exp engine -mode sfc -quick
//	pnrbench -quick -json BENCH_pnr.json
//
// Experiments: fig1, fig3, fig4, fig5, threeway (PNR vs SFC vs ML-KL),
// fig45_3d, transient (figs 6-8), bound8, thm61, engine, ablation, geo,
// diffusion, all. The engine experiment runs once per rebalance algorithm
// selected by -mode: a name registered in internal/pared (see
// pared.AlgorithmNames), or all. The record of algorithm X is engine_X
// (engine for pnr, plus engine_sfc_3d for sfc); -mode validation and the
// `all` expansion both read the registry, so a registered algorithm cannot
// be dropped from either.
//
// With -json, a machine-readable performance report (wall time and heap
// allocation per experiment, plus run metadata) is written to the given
// file. The committed BENCH_pnr.json at the repo root is such a report at
// Quick scale — the repo's performance trajectory, regenerated with
// `make bench-json` and diffed in review like any other artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"pared/internal/experiments"
	"pared/internal/pared"
)

// benchRecord is one experiment's measured cost. Allocation figures are
// runtime.MemStats deltas (total bytes allocated and heap objects created
// during the experiment, including what the GC later reclaims).
type benchRecord struct {
	Name       string  `json:"name"`
	WallMs     float64 `json:"wall_ms"`
	Allocs     uint64  `json:"allocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	// Engine-phase breakdown (engine records only): rank 0 wall time in P1
	// (local weights), P2 (gather or distributed scan) and P3 (repartition +
	// migrate), and which registered algorithm ran.
	P1Ms          float64 `json:"p1_ms,omitempty"`
	P2Ms          float64 `json:"p2_ms,omitempty"`
	P3Ms          float64 `json:"p3_ms,omitempty"`
	RebalanceMode string  `json:"rebalance_mode,omitempty"`
	// Hierarchical-mode extras (engine_hier only): the split of P3's
	// repartition time into the node-level phase A and the intra-group phase
	// B, and the final cut decomposed into inter-node vs intra-node weight.
	HierAMs  float64 `json:"hier_a_ms,omitempty"`
	HierBMs  float64 `json:"hier_b_ms,omitempty"`
	Cut      int64   `json:"cut,omitempty"`
	InterCut int64   `json:"inter_cut,omitempty"`
	IntraCut int64   `json:"intra_cut,omitempty"`
}

// benchReport is the -json output: run metadata plus one record per
// experiment, in execution order.
type benchReport struct {
	Generated  string        `json:"generated"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Scale      string        `json:"scale"`
	Records    []benchRecord `json:"records"`
}

func main() {
	exp := flag.String("exp", "all", "experiment: fig1|fig3|fig4|fig5|threeway|transient|bound8|thm61|engine|all")
	quick := flag.Bool("quick", false, "run reduced sizes (seconds instead of minutes)")
	svg := flag.String("svg", "", "directory for SVG mesh renderings (fig1, transient)")
	jsonOut := flag.String("json", "", "write per-experiment wall time and allocation stats to this JSON file")
	mode := flag.String("mode", "all", "engine rebalance mode: "+strings.Join(pared.AlgorithmNames(), "|")+"|all (all emits one record per registered mode)")
	flag.Parse()

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	if *svg != "" {
		if err := os.MkdirAll(*svg, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "pnrbench: %v\n", err)
			os.Exit(1)
		}
	}
	report := benchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      scaleName(scale),
	}
	w := os.Stdout
	// run executes one experiment if selected; aliases let one -exp name cover
	// several records (-exp engine runs engine, engine_sfc and engine_mlkl).
	run := func(name string, f func(), aliases ...string) {
		match := *exp == "all" || *exp == name
		for _, a := range aliases {
			if *exp == a {
				match = true
			}
		}
		if !match {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		fmt.Fprintf(w, "\n=== %s (scale=%v) ===\n", name, scaleName(scale))
		f()
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		fmt.Fprintf(w, "[%s took %v]\n", name, wall.Round(time.Millisecond))
		report.Records = append(report.Records, benchRecord{
			Name:       name,
			WallMs:     float64(wall.Microseconds()) / 1000,
			Allocs:     after.Mallocs - before.Mallocs,
			AllocBytes: after.TotalAlloc - before.TotalAlloc,
		})
	}

	known := "fig1 fig3 fig4 fig5 threeway fig45_3d transient transient3d bound8 thm61 engine ablation geo diffusion all"
	if !strings.Contains(known, *exp) {
		fmt.Fprintf(os.Stderr, "pnrbench: unknown experiment %q (want one of %s)\n", *exp, known)
		os.Exit(2)
	}
	if _, err := pared.ConfigByName(*mode); *mode != "all" && err != nil {
		fmt.Fprintf(os.Stderr, "pnrbench: -mode: %v\n", err)
		os.Exit(2)
	}

	run("fig1", func() { experiments.Fig1(w, scale, *svg) })
	run("fig3", func() { experiments.Fig3(w, scale) })
	run("fig4", func() { experiments.Fig4(w, scale) })
	run("fig5", func() { experiments.Fig5(w, scale) })
	run("threeway", func() { experiments.ThreeWay(w, scale) })
	run("transient", func() {
		cfg := experiments.DefaultTransient(scale)
		cfg.SVGDir = *svg
		experiments.Transient(w, cfg)
	})
	run("fig45_3d", func() { experiments.Fig45For3D(w, scale) })
	run("transient3d", func() { experiments.Transient3D(w, scale) })
	run("bound8", func() { experiments.Section8(w, scale) })
	run("thm61", func() { experiments.Theorem61(w, scale) })
	// The engine experiment runs once per requested rebalance algorithm, each
	// as its own record so benchguard tracks the pipelines independently. sfc
	// runs a second time on a tetrahedral mesh: its 3D curve keys are a
	// separate code path.
	engine := func(record, name string, demo func(io.Writer, experiments.Scale, string) experiments.EnginePhases) {
		var ph experiments.EnginePhases
		run(record, func() { ph = demo(w, scale, name) }, "engine")
		for i := range report.Records {
			if report.Records[i].Name == record {
				r := &report.Records[i]
				r.P1Ms, r.P2Ms, r.P3Ms = ph.P1Ms, ph.P2Ms, ph.P3Ms
				r.RebalanceMode = ph.Mode
				r.HierAMs, r.HierBMs = ph.HierAMs, ph.HierBMs
				r.Cut, r.InterCut, r.IntraCut = ph.Cut, ph.InterCut, ph.IntraCut
			}
		}
	}
	for _, name := range pared.AlgorithmNames() {
		if *mode != "all" && *mode != name {
			continue
		}
		record := "engine_" + name
		if name == "pnr" {
			record = "engine"
		}
		engine(record, name, experiments.EngineDemo)
		if name == "sfc" {
			engine("engine_sfc_3d", name, experiments.EngineDemo3D)
		}
	}
	run("ablation", func() { experiments.Ablation(w, scale) })
	run("geo", func() { experiments.GeoComparison(w, scale) })
	run("diffusion", func() { experiments.DiffusionComparison(w, scale) })

	if *jsonOut != "" {
		data, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnrbench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pnrbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pnrbench: wrote %s (%d experiments)\n", *jsonOut, len(report.Records))
	}
}

func scaleName(s experiments.Scale) string {
	if s == experiments.Quick {
		return "quick"
	}
	return "full"
}
