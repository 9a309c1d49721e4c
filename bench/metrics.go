package main

import (
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json. count marks a number made by a
// deterministic program: it must repeat exactly from run to run of one seed.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
	count  bool
}

// endToEnd is what a user of the cycle sees. Each bound is three times the
// largest spread (interquartile range over median, ten seeds) the metric
// showed on any workload in any run of bench/spread.py on the 2-core sandbox,
// capped at the contract's 0.25; README.md states the spread beside each
// bound.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.22},
	{Name: "elems_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "epoch_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "epoch_p90_ms", Unit: "ms", Better: "lower", Bound: 0.23},
	{Name: "rebalance_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "adapt_s", Unit: "s", Better: "lower", Bound: 0.24},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.12},
	{Name: "allocs_k", Unit: "k", Better: "lower", Bound: 0.10},
	{Name: "cut_mean", Unit: "weight", Better: "lower", Bound: 0.16, count: true},
	{Name: "imbalance_mean", Unit: "ratio", Better: "lower", Bound: 0.06, count: true},
	{Name: "migrated_frac", Unit: "ratio", Better: "lower", Bound: 0.25, count: true},
}

// value is a measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]value

func (m metricSet) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			m[name] = value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// midMean is the interquartile mean: the mean of what is left after the
// lowest and the highest quarter are dropped. The timed reps of a run measure
// different instances, so the estimate must average over them; the median does
// not (on inputs that fall into two classes, as growth3d_sfc's do, it jumps
// between them), and the plain mean lets one disturbed rep through.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quantile is the nearest-rank quantile of xs (which it does not modify).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func maxOf(xs []int64) int64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func meanOf(xs []int64) float64 {
	s := 0.0
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// acrossRanks collects f(rank log) over the ranks of a rep.
func (res *repResult) acrossRanks(f func(lg *rankLog) int64) []int64 {
	out := make([]int64, len(res.logs))
	for r := range res.logs {
		out[r] = f(&res.logs[r])
	}
	return out
}

// phaseMaxSum is Σ_epochs of the longest any rank spent in one phase, and of
// the mean over ranks. On every rank the phases of an epoch are back to back,
// so the means of the phases add up to the epoch and are the phase's share of
// the cycle (adapt_s, rebalance_s). The max charges the time a rank that left
// the previous phase early spends waiting in this one's first collective to
// both phases; max − mean is that skew.
func (res *repResult) phaseMaxSum(ph int) (maxSum int64, meanSum float64) {
	for k := range res.epochs {
		xs := res.acrossRanks(func(lg *rankLog) int64 { return lg.phase[ph][k] })
		maxSum += maxOf(xs)
		meanSum += meanOf(xs)
	}
	return maxSum, meanSum
}

// epochNs is the per-epoch time, max over ranks.
func (res *repResult) epochNs() []int64 {
	out := make([]int64, len(res.epochs))
	for k := range out {
		out[k] = maxOf(res.acrossRanks(func(lg *rankLog) int64 { return lg.epochEnd[k] - lg.epochStart[k] }))
	}
	return out
}

// wallNs is first-epoch start (earliest rank) to last-epoch end (latest rank).
func (res *repResult) wallNs() int64 {
	last := len(res.epochs) - 1
	start := res.acrossRanks(func(lg *rankLog) int64 { return -lg.epochStart[0] })
	end := res.acrossRanks(func(lg *rankLog) int64 { return lg.epochEnd[last] })
	return maxOf(end) + maxOf(start)
}

func (res *repResult) setupNs() int64 {
	return maxOf(res.acrossRanks(func(lg *rankLog) int64 { return lg.setupEnd }))
}

const (
	nsPerS  = 1e9
	nsPerMs = 1e6
)

// countInstances is how many instances the count metrics average over: the
// first ones, so that a seed always gives the same counts however many reps
// the time allows.
const countInstances = 5

// endToEndMetrics folds the timed reps of one workload into the end-to-end
// set and returns it with the number of epoch samples behind the percentiles.
// Timings and allocations are mid-means over reps. An epoch's time is first
// the mid-mean over reps of that epoch, and the percentiles are then taken
// over epochs: which epochs are slow (a hierarchy rebuild, the largest mesh of
// a growth run) is a property of the workload, so p90 names the same epochs in
// every run. The count metrics are means over the first countInstances reps.
func endToEndMetrics(reps []*repResult) (metricSet, int) {
	var wall, reb, adapt, setup, allocMB, allocsK []float64
	perEpoch := make([][]float64, len(reps[0].epochs))
	for _, r := range reps {
		wall = append(wall, float64(r.wallNs())/nsPerS)
		_, x := r.phaseMaxSum(phRebalance)
		reb = append(reb, x/nsPerS)
		_, x = r.phaseMaxSum(phAdapt)
		adapt = append(adapt, x/nsPerS)
		setup = append(setup, float64(r.setupNs())/nsPerS)
		allocMB = append(allocMB, float64(r.allocB)/1e6)
		allocsK = append(allocsK, float64(r.mallocs)/1e3)
		for k, ns := range r.epochNs() {
			perEpoch[k] = append(perEpoch[k], float64(ns)/nsPerMs)
		}
	}
	epochMs := make([]float64, len(perEpoch))
	for k, xs := range perEpoch {
		epochMs[k] = midMean(xs)
	}
	counted := reps[:min(len(reps), countInstances)]
	var leaves, cut, imb, moved float64
	for _, r := range counted {
		var c, ran float64
		for _, e := range r.epochs {
			leaves += float64(e.leaves)
			moved += float64(e.reb.MovedElements) / float64(e.leaves)
			imb += e.reb.Imbalance
			if e.reb.Ran {
				c += float64(e.reb.CutAfter)
				ran++
			}
		}
		cut += c / math.Max(1, ran)
	}
	n := float64(len(counted))
	epochs := n * float64(len(epochMs))
	m := metricSet{}
	w := midMean(wall)
	m.set(endToEnd, "wall_s", w)
	m.set(endToEnd, "elems_per_s", leaves/n/w)
	m.set(endToEnd, "epoch_p50_ms", quantile(epochMs, 0.5))
	m.set(endToEnd, "epoch_p90_ms", quantile(epochMs, 0.9))
	m.set(endToEnd, "rebalance_s", midMean(reb))
	m.set(endToEnd, "adapt_s", midMean(adapt))
	m.set(endToEnd, "setup_s", midMean(setup))
	m.set(endToEnd, "alloc_mb", midMean(allocMB))
	m.set(endToEnd, "allocs_k", midMean(allocsK))
	m.set(endToEnd, "cut_mean", cut/n)
	m.set(endToEnd, "imbalance_mean", 1+imb/epochs)
	m.set(endToEnd, "migrated_frac", moved/epochs)
	return m, len(epochMs) * len(reps)
}

// perLayer is the traced pass's output, one layer per prefix. Times are sums
// over the rep's epochs (pared.*) or over its probe epochs (everything a
// probe measures); README.md maps each to the end-to-end metric it should
// move. A layer the workload's cycle never enters reads 0.
var perLayer = []metricDef{
	// pared: the four engine calls, wrapped per rank.
	{Name: "pared.solve_ms.max", Unit: "ms", Better: "lower"},
	{Name: "pared.solve_ms.mean", Unit: "ms", Better: "lower"},
	{Name: "pared.estimate_ms.max", Unit: "ms", Better: "lower"},
	{Name: "pared.estimate_ms.mean", Unit: "ms", Better: "lower"},
	{Name: "pared.adapt_ms.max", Unit: "ms", Better: "lower"},
	{Name: "pared.adapt_ms.mean", Unit: "ms", Better: "lower"},
	{Name: "pared.rebalance_ms.max", Unit: "ms", Better: "lower"},
	{Name: "pared.rebalance_ms.mean", Unit: "ms", Better: "lower"},
	{Name: "pared.p1_ms.max", Unit: "ms", Better: "lower"},
	{Name: "pared.p1_ms.mean", Unit: "ms", Better: "lower"},
	{Name: "pared.p2_ms.max", Unit: "ms", Better: "lower"},
	{Name: "pared.p2_ms.mean", Unit: "ms", Better: "lower"},
	{Name: "pared.p3_ms.max", Unit: "ms", Better: "lower"},
	{Name: "pared.p3_ms.mean", Unit: "ms", Better: "lower"},
	{Name: "pared.hier_a_ms", Unit: "ms", Better: "lower"},
	{Name: "pared.hier_b_ms", Unit: "ms", Better: "lower"},
	{Name: "pared.adapt_rounds", Unit: "count", Better: "lower", count: true},
	{Name: "pared.rebalance_ran", Unit: "count", Better: "lower", count: true},
	{Name: "pared.cheap_skips", Unit: "count", Better: "higher", count: true},
	{Name: "pared.moved_trees", Unit: "count", Better: "lower", count: true},
	{Name: "pared.moved_elems", Unit: "count", Better: "lower", count: true},
	{Name: "pared.cg_iters", Unit: "count", Better: "lower", count: true},
	{Name: "pared.solve_us_per_iter", Unit: "us", Better: "lower"},
	{Name: "pared.leaves_max_over_mean", Unit: "ratio", Better: "lower", count: true},
	{Name: "pared.refined_max_over_mean", Unit: "ratio", Better: "lower", count: true},
	{Name: "pared.heap_inuse_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},
	// core: the P3 decision replayed on G and the pre-epoch owner map.
	{Name: "core.repartition_cached_ms", Unit: "ms", Better: "lower"},
	{Name: "core.repartition_scratch_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cache_speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.dist_repartition_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cut_after", Unit: "weight", Better: "lower", count: true},
	{Name: "core.migrated_weight", Unit: "weight", Better: "lower", count: true},
	// graph: building G and contracting it.
	{Name: "graph.coarse_dual_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.hem_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.contract_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.levels", Unit: "count", Better: "lower", count: true},
	{Name: "graph.n", Unit: "count", Better: "lower", count: true},
	{Name: "graph.m", Unit: "count", Better: "lower", count: true},
	// partition/sfc.
	{Name: "sfc.keys_ms", Unit: "ms", Better: "lower"},
	{Name: "sfc.sort_ms", Unit: "ms", Better: "lower"},
	{Name: "sfc.assign_ms", Unit: "ms", Better: "lower"},
	// forest: the migrated trees through the wire codec.
	{Name: "forest.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "forest.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "forest.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "forest.insert_ms", Unit: "ms", Better: "lower"},
	{Name: "forest.wire_bytes", Unit: "B", Better: "lower", count: true},
	{Name: "forest.bytes_per_elem", Unit: "B", Better: "lower", count: true},
	{Name: "forest.encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "forest.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "forest.leafmesh_ms", Unit: "ms", Better: "lower"},
	// refine: the epoch's adaptation replayed on one thread.
	{Name: "refine.serial_adapt_ms", Unit: "ms", Better: "lower"},
	{Name: "refine.bisections", Unit: "count", Better: "lower", count: true},
	{Name: "refine.elems_per_ms", Unit: "1/ms", Better: "higher"},
	{Name: "refine.dist_overhead", Unit: "ratio", Better: "lower"},
	// la/fem: solve workloads only.
	{Name: "fem.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "la.spmv_us", Unit: "us", Better: "lower"},
	{Name: "la.spmv_flops", Unit: "flop", Better: "lower", count: true},
	{Name: "la.spmv_bytes", Unit: "B", Better: "lower", count: true},
	{Name: "la.spmv_gflop_s", Unit: "Gflop/s", Better: "higher"},
	{Name: "fem.serial_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "la.serial_cg_iters", Unit: "count", Better: "lower", count: true},
	// kern and par: run-wide, the same under every workload of one invocation.
	{Name: "kern.workers", Unit: "count", Better: "higher"},
	{Name: "kern.chunk_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "kern.sum_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "kern.sum_array_mb", Unit: "MB", Better: "higher"},
	{Name: "kern.llc_mb", Unit: "MB", Better: "higher"},
	{Name: "par.run_spawn_us", Unit: "us", Better: "lower"},
	{Name: "par.p2p_us", Unit: "us", Better: "lower"},
	{Name: "par.p2p_64k_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "par.barrier_us", Unit: "us", Better: "lower"},
	{Name: "par.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "par.allreduce_boxed_us", Unit: "us", Better: "lower"},
	{Name: "par.gather_1k_us", Unit: "us", Better: "lower"},
	{Name: "par.bcast_1k_us", Unit: "us", Better: "lower"},
	{Name: "par.allgather_1k_us", Unit: "us", Better: "lower"},
	{Name: "par.allgather_moves_us", Unit: "us", Better: "lower"},
	{Name: "par.alltoall_64k_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "par.split_us", Unit: "us", Better: "lower"},
	{Name: "par.allreduce_allocs", Unit: "count", Better: "lower"},
	{Name: "par.allreduce_boxed_allocs", Unit: "count", Better: "lower"},
}

// ratio is a/b, or 0 when the layer did no work.
func ratio(a, b float64) float64 {
	//paredlint:allow floateq -- exact zero guard before division
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerMetrics folds the traced rep and its prober into the per-layer
// set; micro holds the run-wide par/kern numbers and untracedWall the median
// wall_s of the untraced reps the overhead is measured against.
func perLayerMetrics(w *workload, res *repResult, pr *prober, micro metricSet, untracedWall float64) metricSet {
	m := metricSet{}
	for name, v := range micro {
		m[name] = v
	}
	set := func(name string, v float64) { m.set(perLayer, name, v) }

	var callMax [nPhases]float64
	for ph := 0; ph < nPhases; ph++ {
		mx, mean := res.phaseMaxSum(ph)
		callMax[ph] = float64(mx) / nsPerMs
		set("pared."+phaseNames[ph]+"_ms.max", callMax[ph])
		set("pared."+phaseNames[ph]+"_ms.mean", mean/nsPerMs)
	}
	for _, ph := range []struct {
		name string
		get  func(lg *rankLog) int64
	}{
		{"p1", func(lg *rankLog) int64 { return int64(lg.engine.P1) }},
		{"p2", func(lg *rankLog) int64 { return int64(lg.engine.P2) }},
		{"p3", func(lg *rankLog) int64 { return int64(lg.engine.P3) }},
	} {
		xs := res.acrossRanks(ph.get)
		set("pared."+ph.name+"_ms.max", float64(maxOf(xs))/nsPerMs)
		set("pared."+ph.name+"_ms.mean", meanOf(xs)/nsPerMs)
	}
	set("pared.hier_a_ms", float64(maxOf(res.acrossRanks(func(lg *rankLog) int64 { return int64(lg.engine.HierA) })))/nsPerMs)
	set("pared.hier_b_ms", float64(maxOf(res.acrossRanks(func(lg *rankLog) int64 { return int64(lg.engine.HierB) })))/nsPerMs)

	var rounds, ran, movedTrees, movedElems int64
	skew := 0.0
	for k, e := range res.epochs {
		rounds += int64(e.rounds)
		if e.reb.Ran {
			ran++
		}
		movedTrees += e.reb.MovedTrees
		movedElems += e.reb.MovedElements
		xs := res.acrossRanks(func(lg *rankLog) int64 { return lg.leavesPre[k] })
		skew += ratio(float64(maxOf(xs)), meanOf(xs))
	}
	iters := res.logs[0].cgIters
	set("pared.adapt_rounds", float64(rounds))
	set("pared.rebalance_ran", float64(ran))
	set("pared.cheap_skips", float64(res.logs[0].cheapSkips))
	set("pared.moved_trees", float64(movedTrees))
	set("pared.moved_elems", float64(movedElems))
	set("pared.cg_iters", float64(iters))
	set("pared.solve_us_per_iter", ratio(callMax[phSolve]*1e3, float64(iters)))
	set("pared.leaves_max_over_mean", skew/float64(len(res.epochs)))
	refined := res.acrossRanks(func(lg *rankLog) int64 { return lg.refined })
	set("pared.refined_max_over_mean", ratio(float64(maxOf(refined)), meanOf(refined)))
	set("pared.heap_inuse_peak_mb", pr.heapMB)
	tracedWall := float64(res.wallNs()-pr.ns) / nsPerS
	set("trace_overhead_frac", tracedWall/untracedWall-1)

	ms, n := pr.ms, pr.n
	// Every probe span is reported as the sum of its durations, <span>_ms,
	// except la.spmv, which is reported per call below.
	for _, name := range []string{
		"core.repartition_cached", "core.repartition_scratch", "core.dist_repartition",
		"graph.coarse_dual", "graph.hem", "graph.contract",
		"sfc.keys", "sfc.sort", "sfc.assign",
		"forest.extract", "forest.encode", "forest.decode", "forest.insert", "forest.leafmesh",
		"refine.serial_adapt", "fem.assemble", "fem.serial_solve",
	} {
		set(name+"_ms", ms[name])
	}
	for _, name := range []string{
		"core.migrated_weight", "graph.levels", "graph.n", "graph.m",
		"forest.wire_bytes", "refine.bisections", "la.serial_cg_iters",
	} {
		set(name, n[name])
	}
	set("core.cache_speedup", ratio(ms["core.repartition_scratch"], ms["core.repartition_cached"]))
	set("core.cut_after", ratio(n["core.cut_after"], n["ran"]))
	set("forest.bytes_per_elem", ratio(n["forest.wire_bytes"], n["forest.elems"]))
	set("forest.encode_mb_s", ratio(n["forest.wire_bytes"]/1e3, ms["forest.encode"]))
	set("forest.decode_mb_s", ratio(n["forest.wire_bytes"]/1e3, ms["forest.decode"]))
	set("refine.elems_per_ms", ratio(n["refine.elems"], ms["refine.serial_adapt"]))

	// The serial replay covers the probe epochs only, so the distributed
	// side of the ratio is restricted to the same epochs.
	probedAdapt := 0.0
	for k := range res.epochs {
		if w.probeEpoch(k) {
			probedAdapt += float64(maxOf(res.acrossRanks(func(lg *rankLog) int64 { return lg.phase[phAdapt][k] })))
		}
	}
	set("refine.dist_overhead", ratio(probedAdapt/nsPerMs, ms["refine.serial_adapt"]))

	calls := n["epochs"] * spmvCalls
	flops := 2 * n["la.nnz"] * spmvCalls // one multiply and one add per stored entry
	// Computed, not measured: values and column indices once, row pointers
	// once, x read and y written once; cache misses on x are ignored.
	bytes := (12*n["la.nnz"] + 20*n["la.rows"]) * spmvCalls
	set("la.spmv_us", ratio(ms["la.spmv"]*1e3, calls))
	set("la.spmv_flops", ratio(flops, calls))
	set("la.spmv_bytes", ratio(bytes, calls))
	set("la.spmv_gflop_s", ratio(flops/1e6, ms["la.spmv"]))
	return m
}
