package core

import (
	"pared/internal/check"
	"pared/internal/graph"
)

// klMove records one KL move for prefix rollback.
type klMove struct {
	v    int32
	from int32
}

// klScratch holds the work arrays of runKL and forceBalance so the V-cycle
// drivers reuse them across levels and cycles instead of reallocating per
// call. Buffers grow to the largest graph seen. The zero value is ready to
// use; a nil *klScratch means "allocate per call".
type klScratch struct {
	partW      []int64
	extW       []int64 // edge weight from the scanned vertex to each part
	locked     []bool
	inBoundary []bool
	touched    []int32
	boundary   []int32
	moves      []klMove
	// dist holds the distributed-refinement buffers (distrefine.go); idle
	// (and never grown) unless Config.DistRefine routes the sweeps there.
	dist distScratch
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growI64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growI32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// moveGain is the amount by which Equation 1 falls when a vertex of weight
// wv, whose data lives on part orig, moves from part i to part j:
//
//	gain(v: i→j) = [w(v→j) − w(v→i)]                      (cut)
//	             + α·wv·([i≠orig] − [j≠orig])             (migration)
//	             + 2β·wv·(W_i − W_j − wv)                  (balance)
//
// ext is the bracket of the cut term, wi and wj the part weights before the
// move. hardBalance drops the balance term: polishKL enforces a limit instead.
// Every move selector scores through this one expression, so their floats
// agree bit for bit (assert.go keeps its own copy, as the brute-force
// reference). It must stay inlinable: it sits on every selector's inner loop.
func moveGain(cfg Config, ext, wv int64, i, j, orig int32, wi, wj int64, hardBalance bool) float64 {
	gc := float64(ext)
	gm := 0.0
	if i == orig {
		gm -= cfg.Alpha * float64(wv)
	}
	if j == orig {
		gm += cfg.Alpha * float64(wv)
	}
	gain := gc + gm
	if !hardBalance {
		gain += 2 * cfg.Beta * float64(wv) * float64(wi-wj-wv)
	}
	return gain
}

// refineKL runs PNR's Kernighan–Lin variant: passes of best-gain boundary
// moves under the 3-term gain (moveGain). Each vertex moves at most once per
// pass; the pass keeps the best prefix of its move sequence (classic KL
// hill-climbing) and ends early after maxNegMoves consecutive non-improving
// moves. The paper realizes the move selection with a p×p table of priority
// queues rebuilt when part weights change (gaintable.go, which is also the
// faster of the two: see Config.UseGainTable); the default is a direct scan
// of the boundary, whose tie-break every committed count was recorded under.
func refineKL(s *klScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config) {
	if cfg.UseGainTable {
		refineKLTable(g, parts, orig, p, cfg)
		return
	}
	runKL(s, g, parts, orig, p, cfg, false)
}

// polishKL runs extra passes with the balance term replaced by a hard
// constraint: only moves keeping every part within (1+ε)·W̄ are admissible,
// and the gain is cut + α·migration. Applied after balance is reached, it
// recovers cut quality that the soft quadratic term would otherwise freeze
// (every move then carries a −2βw² penalty, blocking small cut improvements).
func polishKL(s *klScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config) {
	runKL(s, g, parts, orig, p, cfg, true)
}

func runKL(s *klScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config, hardBalance bool) {
	n := len(g.VW) // g.N(), phrased as the length fact the index proofs chain from
	if n == 0 || p <= 1 {
		return
	}
	parts = parts[:n] // pin len(parts) = g.N()
	if s == nil {
		s = new(klScratch)
	}
	s.partW = growI64s(s.partW, p)
	partW := s.partW[:p]
	for j := 0; j < p; j++ {
		partW[j] = 0
	}
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
	s.locked = growBool(s.locked, n)
	s.inBoundary = growBool(s.inBoundary, n)
	s.extW = growI64s(s.extW, p)
	locked, inBoundary, extW := s.locked[:n], s.inBoundary[:n], s.extW[:p]
	for j := 0; j < p; j++ {
		extW[j] = 0
	}
	touched := s.touched[:0]

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
		boundary := s.boundary[:0]
		for v := int32(0); v < int32(n); v++ {
			locked[v] = false
			inBoundary[v] = isBoundary(v)
			if inBoundary[v] {
				boundary = append(boundary, v)
			}
		}
		moves := s.moves[:0]
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
						// ">= && v<" is the equal-gain tie-break without a
						// float ==: the > clause has already failed here.
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
			if check.Enabled {
				check.PartitionWeights(g, parts, p, partW, "core.runKL")
			}
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
		// Hand the grown buffers back so the next pass/call reuses them.
		s.boundary, s.moves = boundary, moves
		if bestIdx < 0 {
			break
		}
	}
	s.touched = touched
}

// forceBalance is the post-refinement safety net: while some part exceeds
// (1+ε) of the average weight, move the best-gain boundary vertex out of the
// heaviest part into an underweight part. The β-weighted gain already prefers
// such moves, so this loop usually runs zero iterations; it guarantees the
// ε < 0.01 balance the paper reports even on adversarial inputs.
func forceBalance(s *klScratch, g *graph.Graph, parts, orig []int32, p int, cfg Config) {
	n := len(g.VW) // g.N(), phrased as the length fact the index proofs chain from
	if n == 0 || p <= 1 {
		return
	}
	parts = parts[:n] // pin len(parts) = g.N()
	if s == nil {
		s = new(klScratch)
	}
	s.partW = growI64s(s.partW, p)
	partW := s.partW[:p]
	for j := 0; j < p; j++ {
		partW[j] = 0
	}
	for v := 0; v < n; v++ {
		partW[parts[v]] += g.VW[v]
	}
	var total int64
	for _, w := range partW {
		total += w
	}
	avg := float64(total) / float64(p)
	limit := int64(avg * (1 + eps))
	s.extW = growI64s(s.extW, p)
	extW := s.extW[:p]
	for j := 0; j < p; j++ {
		extW[j] = 0
	}
	touched := s.touched[:0]
	defer func() { s.touched = touched }()
	for iter := 0; iter < 4*n; iter++ {
		h := int32(0)
		for j := 1; j < p; j++ {
			if partW[j] > partW[h] {
				h = int32(j)
			}
		}
		if partW[h] <= limit {
			return
		}
		var selV, selTo int32 = -1, -1
		selGain := 0.0
		for v := int32(0); v < int32(n); v++ {
			if parts[v] != h {
				continue
			}
			touched = touched[:0]
			g.Neighbors(v, func(u int32, w int64) {
				pu := parts[u]
				if extW[pu] == 0 {
					touched = append(touched, pu)
				}
				extW[pu] += w
			})
			wv := g.VW[v]
			consider := func(j int32) {
				if j == h || float64(partW[j])+float64(wv) > avg*(1+eps) {
					return
				}
				gain := moveGain(cfg, extW[j]-extW[h], wv, h, j, orig[v], partW[h], partW[j], false)
				if selV < 0 || gain > selGain {
					selV, selTo, selGain = v, j, gain
				}
			}
			for _, j := range touched {
				consider(j)
			}
			// Also allow the globally lightest part even if not adjacent
			// (needed when the heavy part is walled in).
			light := int32(0)
			for j := 1; j < p; j++ {
				if partW[j] < partW[light] {
					light = int32(j)
				}
			}
			consider(light)
			for _, j := range touched {
				extW[j] = 0
			}
		}
		if selV < 0 {
			return // nothing movable (e.g. single giant vertex)
		}
		parts[selV] = selTo
		partW[h] -= g.VW[selV]
		partW[selTo] += g.VW[selV]
	}
}
