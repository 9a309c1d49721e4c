package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pared/internal/graph"
	"pared/internal/meshgen"
	"pared/internal/partition/mlkl"
)

// klStep is one selected move as the oracle compares it: gain by its bits.
type klStep struct {
	v, from, to int32
	gain        uint64
}

// runKLScanRef is the boundary scan runKL used before it cached per-vertex
// best moves, body unchanged (its scratch fields are locals here, and rec
// reports every selected move): each selection re-walks every listed boundary
// vertex. It is the oracle runKL must match move for move.
func runKLScanRef(g *graph.Graph, parts, orig []int32, p int, cfg Config, hardBalance bool, rec func(klStep)) {
	n := len(g.VW)
	if n == 0 || p <= 1 {
		return
	}
	parts = parts[:n]
	partW := make([]int64, p)
	for v := 0; v < n; v++ {
		partW[parts[v]] += g.VW[v]
	}
	var limit int64
	if hardBalance {
		var total int64
		for _, w := range partW {
			total += w
		}
		limit = int64(float64(total) / float64(p) * (1 + eps))
	}
	locked, inBoundary, extW := make([]bool, n), make([]bool, n), make([]int64, p)
	var touched, boundary []int32
	var moves []klMove

	isBoundary := func(v int32) bool {
		cross := false
		g.Neighbors(v, func(u int32, _ int64) {
			if parts[u] != parts[v] {
				cross = true
			}
		})
		return cross
	}

	for pass := 0; pass < klPasses; pass++ {
		boundary = boundary[:0]
		for v := int32(0); v < int32(n); v++ {
			locked[v] = false
			inBoundary[v] = isBoundary(v)
			if inBoundary[v] {
				boundary = append(boundary, v)
			}
		}
		moves = moves[:0]
		cumGain, bestGain := 0.0, 0.0
		bestIdx := -1
		negStreak := 0
		for {
			// Select the best-gain admissible move over the boundary.
			var selV, selTo int32 = -1, -1
			selGain := 0.0
			for _, v := range boundary {
				if locked[v] {
					continue
				}
				i := parts[v]
				// Edge weights from v to each incident part.
				touched = touched[:0]
				cross := false
				g.Neighbors(v, func(u int32, w int64) {
					pu := parts[u]
					if extW[pu] == 0 {
						touched = append(touched, pu)
					}
					extW[pu] += w
					if pu != i {
						cross = true
					}
				})
				if cross {
					wv := g.VW[v]
					for _, j := range touched {
						if j == i {
							continue
						}
						if hardBalance && partW[j]+wv > limit {
							continue
						}
						gain := moveGain(cfg, extW[j]-extW[i], wv, i, j, orig[v], partW[i], partW[j], hardBalance)
						if selV < 0 || gain > selGain || (gain >= selGain && v < selV) {
							selV, selTo, selGain = v, j, gain
						}
					}
				}
				for _, j := range touched {
					extW[j] = 0
				}
			}
			if selV < 0 {
				break
			}
			from := parts[selV]
			parts[selV] = selTo
			partW[from] -= g.VW[selV]
			partW[selTo] += g.VW[selV]
			locked[selV] = true
			rec(klStep{selV, from, selTo, math.Float64bits(selGain)})
			cumGain += selGain
			moves = append(moves, klMove{selV, from})
			g.Neighbors(selV, func(u int32, _ int64) {
				if !inBoundary[u] {
					inBoundary[u] = true
					boundary = append(boundary, u)
				}
			})
			if cumGain > bestGain+1e-9 {
				bestGain = cumGain
				bestIdx = len(moves) - 1
				negStreak = 0
			} else {
				negStreak++
				if negStreak > maxNegMoves {
					break
				}
			}
		}
		// Keep the best prefix.
		for i := len(moves) - 1; i > bestIdx; i-- {
			m := moves[i]
			partW[parts[m.v]] -= g.VW[m.v]
			partW[m.from] += g.VW[m.v]
			parts[m.v] = m.from
		}
		if bestIdx < 0 {
			break
		}
	}
}

// gridGraph is the n×n 4-neighbour grid with unit weights: every interior
// boundary vertex of a straight cut scores the same gain, so the vertex-asc
// and first-touched-part tie-breaks decide nearly every selection.
func gridGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n * n)
	id := func(r, c int) int32 { return int32(r*n + c) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				b.AddEdge(id(r, c), id(r, c+1), 1)
			}
			if r+1 < n {
				b.AddEdge(id(r, c), id(r+1, c), 1)
			}
		}
	}
	return b.Build()
}

// stripes assigns vertex v of n to part v·p/n: p contiguous index blocks.
func stripes(n, p int) []int32 {
	parts := make([]int32, n)
	for v := range parts {
		parts[v] = int32(v * p / n)
	}
	return parts
}

// compareKL runs one refinement, soft or hard balance, from start through
// the scan and through runKL twice (on the shared scratch s, whatever graph
// it last served, and on a fresh one), and requires identical move sequences
// and identical final parts. It returns the scan's result and its number of
// moves.
func compareKL(t *testing.T, name string, s *klScratch, g *graph.Graph, start, orig []int32, p int, cfg Config, hard bool) ([]int32, int) {
	t.Helper()
	want := append([]int32(nil), start...)
	var wantSeq []klStep
	runKLScanRef(g, want, orig, p, cfg, hard, func(m klStep) { wantSeq = append(wantSeq, m) })
	for _, scr := range []*klScratch{s, new(klScratch)} {
		got := append([]int32(nil), start...)
		var gotSeq []klStep
		scr.onMove = func(v, from, to int32, gain float64) {
			gotSeq = append(gotSeq, klStep{v, from, to, math.Float64bits(gain)})
		}
		runKL(scr, g, got, orig, p, cfg, hard)
		scr.onMove = nil
		if len(gotSeq) != len(wantSeq) {
			t.Fatalf("%s hard=%v: %d moves, the scan makes %d", name, hard, len(gotSeq), len(wantSeq))
		}
		for k := range wantSeq {
			if gotSeq[k] != wantSeq[k] {
				t.Fatalf("%s hard=%v: move %d is %+v, the scan's is %+v", name, hard, k, gotSeq[k], wantSeq[k])
			}
		}
		if !samePartition(got, want) {
			t.Fatalf("%s hard=%v: final parts differ from the scan's", name, hard)
		}
	}
	return want, len(wantSeq)
}

// checkKLMatchesScan compares the soft-balance refinement and then, from its
// forced-balanced result, the hard-balance polish — the order Repartition
// runs them in (compareKL). It returns the number of moves compared.
func checkKLMatchesScan(t *testing.T, name string, s *klScratch, g *graph.Graph, start, orig []int32, p int, cfg Config) int {
	t.Helper()
	soft, total := compareKL(t, name, s, g, start, orig, p, cfg, false)
	forceBalance(nil, g, soft, orig, p, cfg)
	_, moves := compareKL(t, name, s, g, soft, orig, p, cfg, true)
	return total + moves
}

// TestRunKLMatchesScanMoveForMove is the selector's contract: on every kind
// of graph Repartition hands it, runKL makes the boundary scan's moves — same
// vertex, same parts, same gain bits, rolled-back tail included. One scratch
// serves every case in turn, so graphs of different size and part count reuse
// each other's buffers.
func TestRunKLMatchesScanMoveForMove(t *testing.T) {
	cfg := Config{}.withDefaults()
	s := new(klScratch)
	run := func(name string, g *graph.Graph, start, orig []int32, p int) {
		t.Helper()
		if moves := checkKLMatchesScan(t, name, s, g, start, orig, p, cfg); moves == 0 {
			t.Errorf("%s: no moves selected, the case compares nothing", name)
		}
	}

	// The pinned benchmark scenario; p = 64 uses every dependency bit, p = 70
	// aliases parts 64..69 onto the bits of parts 0..5, and p = 130 puts two
	// parts or more on every bit, so groups hold vertices of unrelated parts.
	for _, p := range []int{2, 3, 8, 16, 64, 70, 130} {
		g, old := refinedScenario(24, p, 5)
		run(fmt.Sprintf("refined p=%d", p), g, old, old, p)
	}

	// Hard balance from a start with three of four parts exactly at the
	// limit (101 of 400 unit vertices each): only the fourth part is open at
	// first, every move into it closes it further and reopens the part it
	// left, so candidates close and reopen move by move.
	{
		const p = 4
		g := gridGraph(20)
		start := make([]int32, g.N())
		for v := range start {
			start[v] = int32(min(v/101, p-1))
		}
		if _, moves := compareKL(t, "grid at the limit", s, g, start, start, p, cfg, true); moves == 0 {
			t.Error("grid at the limit: no moves selected, the case compares nothing")
		}
	}

	// The transient2d_pnr coarse mesh, the 40×40 RectTri dual, under a
	// peak of vertex weights, from a partition of the unweighted mesh.
	{
		const p = 8
		m := meshgen.RectTri(40, 40, 0, 0, 1, 1)
		g := graph.FromDual(m)
		old := mlkl.Partition(g, p, mlkl.Config{Seed: 5})
		for v := range g.VW {
			c := m.Centroid(v)
			d2 := (c.X-0.3)*(c.X-0.3) + (c.Y-0.6)*(c.Y-0.6)
			g.VW[v] = 1 + int64(30*math.Exp(-d2/0.02))
		}
		run("rect40 peak", g, old, old, p)
	}

	// Uniform weights: exact gain ties.
	for _, p := range []int{2, 4, 5} {
		g := gridGraph(14)
		old := stripes(g.N(), p)
		run(fmt.Sprintf("grid p=%d", p), g, old, old, p)
	}

	// Every level of a contraction chain (degree ≫ 3, merged edge weights),
	// as the multilevel path refines them; start differs from orig.
	{
		const p = 4
		g, orig := heavyHalfScenario(20, p)
		start := Repartition(g, orig, p, cfg)
		for level := 0; g.N() > 4*p; level++ {
			run(fmt.Sprintf("contracted level %d (n=%d)", level, g.N()), g, start, orig, p)
			g0, start0, orig0 := g, start, orig
			match := graph.HeavyEdgeMatching(g0, int64(level+1), func(u, v int32) bool {
				return start0[u] == start0[v] && orig0[u] == orig0[v]
			})
			cg, f2c := graph.ContractInto(g0, match, nil)
			if cg.N() == g0.N() {
				break
			}
			start, orig = make([]int32, cg.N()), make([]int32, cg.N())
			for v, c := range f2c {
				start[c], orig[c] = start0[v], orig0[v]
			}
			g = cg
		}
	}

	// A tetrahedral dual (degree 4).
	{
		const p = 6
		g := graph.FromDual(meshgen.BoxTet(5, 5, 5, 0, 0, 0, 1, 1, 1))
		old := mlkl.Partition(g, p, mlkl.Config{Seed: 3})
		for v := range g.VW {
			g.VW[v] = int64(1 + v%4)
		}
		run("boxtet", g, old, old, p)
	}

	// Seeded random vertex and edge weights, random start and origin.
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := meshgen.RectTri(10+rng.Intn(8), 10+rng.Intn(8), 0, 0, 1, 1)
		dual := graph.FromDual(m)
		b := graph.NewBuilder(dual.N())
		for v := int32(0); v < int32(dual.N()); v++ {
			b.SetVW(v, int64(1+rng.Intn(9)))
			dual.Neighbors(v, func(u int32, _ int64) {
				if u > v {
					b.AddEdge(v, u, int64(1+rng.Intn(5)))
				}
			})
		}
		g := b.Build()
		p := 2 + rng.Intn(7)
		start, orig := make([]int32, g.N()), make([]int32, g.N())
		for v := range start {
			start[v] = int32(v * p / g.N())
			orig[v] = start[v]
			if rng.Intn(10) == 0 {
				orig[v] = int32(rng.Intn(p))
			}
		}
		run(fmt.Sprintf("random seed=%d p=%d", seed, p), g, start, orig, p)
	}
}

// TestKLSkipsUnreachedGroups pins that a pick re-examines only the groups
// the previous move reaches. Right after the first move of the polish, a
// gain 1000 too high is planted in a slot, not its group's best, whose group
// misses both parts of the move. A hard-balance pick that walked that group
// would find no rule to re-score the slot by and select it; the grouped pick
// must make the scan's second move instead. The inverse of
// TestKLCorruptedCacheTrips.
func TestKLSkipsUnreachedGroups(t *testing.T) {
	const p = 8
	g, old := refinedScenario(24, p, 5)
	cfg := Config{}.withDefaults()
	start := append([]int32(nil), old...)
	runKL(nil, g, start, old, p, cfg, false)
	forceBalance(nil, g, start, old, p, cfg)
	var want, got []klStep
	runKLScanRef(g, append([]int32(nil), start...), old, p, cfg, true, func(m klStep) { want = append(want, m) })
	s := new(klScratch)
	planted := int32(-1)
	s.onMove = func(v, from, to int32, gain float64) {
		got = append(got, klStep{v, from, to, math.Float64bits(gain)})
		if len(got) > 1 {
			return
		}
		for _, gr := range s.groups {
			if gr.nbr&(partBit(from)|partBit(to)) != 0 {
				continue
			}
			for x := gr.head; x >= 0; x = s.next[x] {
				if x != gr.best && s.slots[x].to >= 0 {
					s.slots[x].gain += 1000
					planted = s.slots[x].v
					return
				}
			}
		}
	}
	runKL(s, g, start, old, p, cfg, true)
	if planted < 0 {
		t.Fatal("no slot outside the first move's reach to plant in")
	}
	if len(want) < 2 || len(got) < 2 || got[1] != want[1] {
		t.Fatalf("after the plant in vertex %d: second move %+v, the scan's %+v", planted, got[1:min(2, len(got))], want[1:min(2, len(want))])
	}
}

// fuzzKLCase decodes a small graph with a start and an origin from fuzz
// bytes, a missing byte reading as zero: n ≤ 48 vertices of weight 1–9, up
// to 6 edges per vertex, p from 2 to 70 (parts 64..69 alias 0..5 in the
// slot bit sets). Edge weights are mostly 1–4, for gain ties, and otherwise
// up to 64 513, past the int16 of the candidate cache.
func fuzzKLCase(data []byte) (g *graph.Graph, start, orig []int32, p int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 2 + next()%47
	p = 2 + next()%69
	b := graph.NewBuilder(n)
	deg := make([]int, n)
	start, orig = make([]int32, n), make([]int32, n)
	for v := 0; v < n; v++ {
		b.SetVW(int32(v), int64(1+next()%9))
		for d := next() % 7; d > 0; d-- {
			u, e := next()%n, next()
			w := int64(1 + e%4)
			if e >= 0xc0 {
				w = 1 + int64(e-0xc0)<<10
			}
			if u != v && deg[u] < 6 && deg[v] < 6 {
				b.AddEdge(int32(v), int32(u), w)
				deg[u]++
				deg[v]++
			}
		}
		start[v] = int32(next() % p)
		orig[v] = start[v]
		if o := next(); o&1 != 0 {
			orig[v] = int32(o>>1) % int32(p)
		}
	}
	return b.Build(), start, orig, p
}

// FuzzRunKL holds runKL to the boundary scan on arbitrary small graphs: soft
// balance, then hard balance from the forced-balanced result, move for move
// with gain bits (checkKLMatchesScan).
func FuzzRunKL(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 400)
		rng.Read(data)
		data[0] = byte(30 + seed) // n from 33 to 38
		if seed%2 == 0 {
			data[1] = 68 // p = 70
		}
		f.Add(data)
	}
	cfg := Config{}.withDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		g, start, orig, p := fuzzKLCase(data)
		checkKLMatchesScan(t, "fuzz", new(klScratch), g, start, orig, p, cfg)
	})
}

// TestRunKLFirstSelectionIsTrueArgmax: on a tiny graph with distinct gains,
// the first move runKL selects equals a brute-force argmax over all (vertex,
// adjacent target part) moves.
func TestRunKLFirstSelectionIsTrueArgmax(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 3)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 5)
	b.AddEdge(3, 4, 2)
	b.AddEdge(4, 5, 4)
	b.AddEdge(0, 5, 1)
	g := b.Build()
	for i := range g.VW {
		g.VW[i] = int64(i + 1)
	}
	parts := []int32{0, 0, 1, 1, 2, 2}
	orig := []int32{0, 0, 1, 1, 2, 2}
	cfg := Config{}.withDefaults()
	partW := []int64{3, 7, 11}
	bestV, bestTo := int32(-1), int32(-1)
	bestG := 0.0
	for x := int32(0); x < 6; x++ {
		for j := int32(0); j < 3; j++ {
			if j == parts[x] {
				continue
			}
			adj := false
			var extI, extJ int64
			g.Neighbors(x, func(u int32, w int64) {
				if parts[u] == j {
					adj = true
					extJ += w
				}
				if parts[u] == parts[x] {
					extI += w
				}
			})
			if !adj {
				continue
			}
			wv := g.VW[x]
			gn := float64(extJ-extI) - cfg.Alpha*float64(wv) + 2*cfg.Beta*float64(wv)*float64(partW[parts[x]]-partW[j]-wv)
			if bestV < 0 || gn > bestG {
				bestV, bestTo, bestG = x, j, gn
			}
		}
	}
	s := new(klScratch)
	first := true
	s.onMove = func(v, from, to int32, gain float64) {
		if first && (v != bestV || to != bestTo || math.Abs(gain-bestG) > 1e-12) {
			t.Errorf("runKL selected (%d->%d, %v), brute force (%d->%d, %v)", v, to, gain, bestV, bestTo, bestG)
		}
		first = false
	}
	runKL(s, g, append([]int32(nil), parts...), orig, 3, cfg, false)
	if first {
		t.Fatal("runKL selected nothing")
	}
}
