// Package kern is the deterministic shared-memory parallel kernel layer for
// PARED's numeric hot paths: CSR SpMV, CSR assembly and the CG/Lanczos vector
// kernels in internal/la, element-parallel P1 assembly in internal/fem,
// facet-record and dual-graph construction in internal/mesh and
// internal/graph, graph contraction, and distributed KL scoring in
// internal/core.
//
// The layer trades scheduling freedom for reproducibility. Its contract:
//
//   - Static chunk geometry. An index space [0, n) is split into ⌈n/grain⌉
//     fixed chunks whose boundaries depend only on n and grain — never on
//     GOMAXPROCS or on which worker runs which chunk.
//
//   - Ordered reduction. Reductions (Sum) combine per-chunk partial results
//     serially in ascending chunk order after all chunks complete, so
//     floating-point rounding is identical to a single-threaded run over the
//     same chunk geometry and independent of scheduling.
//
//   - Bounded workers. At most Workers() goroutines (the caller plus
//     helpers) process chunks, and Workers() is GOMAXPROCS divided by the
//     message-passing ranks live in par.Run: the ranks are the parallelism,
//     and a kernel takes only the cores they leave. With one worker, or when
//     the index space is a single chunk, everything runs inline on the caller
//     with no goroutines and no allocation — which is every call inside a
//     world with at least as many ranks as cores.
//
// Together these make every kern-ported kernel byte-identical for any worker
// count, hence for any GOMAXPROCS and any number of live ranks, which is what
// lets the determinism regression tests (internal/core, internal/pared) keep
// passing with parallelism enabled.
//
// Bodies must be data-parallel: a body may write only to locations owned by
// its chunk (disjoint index ranges, per-chunk buffers) and may read only
// state that no other chunk writes. Bodies must not call back into kern —
// the layer does not nest — and must not block on other chunks. Panics in a
// body are re-raised on the caller after all workers stop.
//
// This package and internal/par are the only two packages allowed to use raw
// Go concurrency (the paredlint rawconc check enforces the carve-out): par
// owns inter-rank message passing, kern owns intra-rank data parallelism.
package kern

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// liveRanks counts the ranks of every par.Run in progress (nested Runs add
// up); see AddRanks.
var liveRanks atomic.Int64

// AddRanks adds delta to the count of live message-passing ranks. par.Run
// adds its p ranks on entry and subtracts them when it returns, however its
// ranks end; nothing else calls it.
func AddRanks(delta int) { liveRanks.Add(int64(delta)) }

// Workers returns the maximum number of goroutines a kernel call may use:
// GOMAXPROCS divided by the ranks live in par.Run, and at least 1. Outside
// any Run (serial experiments, benchmarks, one-rank tools) that is every
// core; inside 8 ranks on 2 cores it is 1, and every call runs inline.
func Workers() int {
	g := runtime.GOMAXPROCS(0)
	if r := int(liveRanks.Load()); r > 1 {
		g /= r
	}
	return max(1, g)
}

// NumChunks returns the number of chunks the index space [0, n) is split
// into at the given grain: ⌈n/grain⌉ (0 for an empty space). Chunk c covers
// [c·grain, min((c+1)·grain, n)). The geometry is a pure function of n and
// grain, which is what makes ordered reductions scheduling-independent.
func NumChunks(n, grain int) int {
	if grain <= 0 {
		panic(fmt.Sprintf("kern: non-positive grain %d", grain))
	}
	if n <= 0 {
		return 0
	}
	return (n + grain - 1) / grain
}

// For runs body(lo, hi) for every chunk of [0, n), in parallel across at
// most Workers() goroutines. body must only write state owned by [lo, hi).
//
// Unlike Sum and ForChunks, For's chunk boundaries are a scheduling detail,
// not a numeric contract: bodies must be valid for any subdivision of
// [0, n). The single-worker and single-chunk cases therefore process the
// whole range in one body(0, n) call, with no goroutines, no wrapper
// closure, and no allocation — solver inner loops can call For per
// iteration without paying a per-call heap cost.
func For(n, grain int, body func(lo, hi int)) {
	nc := NumChunks(n, grain)
	if nc == 0 {
		return
	}
	if nc == 1 || Workers() == 1 {
		body(0, n)
		return
	}
	run(n, grain, func(_, lo, hi int) { body(lo, hi) })
}

// ForChunks runs body(c, lo, hi) for every chunk c of [0, n). The chunk
// index is the hook for per-chunk output buffers that a caller later merges
// in ascending chunk order (the element-order merge used by FEM assembly and
// graph contraction).
func ForChunks(n, grain int, body func(c, lo, hi int)) {
	run(n, grain, body)
}

// partialsPool recycles per-call partial-sum buffers so steady-state
// reductions allocate nothing.
var partialsPool = sync.Pool{New: func() any { return new([]float64) }}

// Sum evaluates chunk(lo, hi) for every chunk of [0, n) in parallel and
// returns the partial results combined in ascending chunk order. With one
// chunk (or n ≤ 0) the result is exactly the serial evaluation.
func Sum(n, grain int, chunk func(lo, hi int) float64) float64 {
	nc := NumChunks(n, grain)
	switch nc {
	case 0:
		return 0
	case 1:
		return chunk(0, n)
	}
	if Workers() == 1 {
		// Same chunks, same ascending fold, no pool or wrapper traffic.
		// A left-to-right fold starting from +0.0 never yields -0.0, so
		// this is bit-identical to the partials path below.
		s := 0.0
		for c := 0; c < nc; c++ {
			hi := (c + 1) * grain
			if hi > n {
				hi = n
			}
			s += chunk(c*grain, hi)
		}
		return s
	}
	bufp := partialsPool.Get().(*[]float64)
	if cap(*bufp) < nc {
		*bufp = make([]float64, nc)
	}
	partials := (*bufp)[:nc]
	run(n, grain, func(c, lo, hi int) { partials[c] = chunk(lo, hi) })
	s := 0.0
	for _, p := range partials {
		s += p
	}
	partialsPool.Put(bufp)
	return s
}

// run distributes the chunks of [0, n) over the caller plus up to
// Workers()-1 helper goroutines. Chunk assignment is dynamic (workers pull
// the next chunk index from a shared counter) but the chunks themselves are
// static, so dynamic balancing never changes what any chunk computes.
func run(n, grain int, body func(c, lo, hi int)) {
	nc := NumChunks(n, grain)
	if nc == 0 {
		return
	}
	last := func(c int) int {
		hi := (c + 1) * grain
		if hi > n {
			hi = n
		}
		return hi
	}
	w := Workers()
	if w > nc {
		w = nc
	}
	if w <= 1 {
		for c := 0; c < nc; c++ {
			body(c, c*grain, last(c))
		}
		return
	}
	var (
		next     atomic.Int64
		panicked atomic.Value // first panic value observed, re-raised below
		wg       sync.WaitGroup
	)
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				// CompareAndSwap is unavailable on Value with differing
				// dynamic types; Store under a sentinel wrapper keeps the
				// first panic best-effort (any panic is fatal regardless).
				panicked.CompareAndSwap(nil, panicVal{r})
			}
		}()
		for {
			c := int(next.Add(1) - 1)
			if c >= nc {
				return
			}
			body(c, c*grain, last(c))
		}
	}
	wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.(panicVal).v)
	}
}

// panicVal wraps recovered panic values so atomic.Value sees one consistent
// concrete type regardless of what the body panicked with.
type panicVal struct{ v any }
