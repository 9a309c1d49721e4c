package core

import (
	"math"

	"pared/internal/check"
)

// assertSelection cross-checks one pick against brute force: the boundary
// scan the move cache replaced, run from scratch over every vertex not moved
// this pass, on part weights recomputed from parts, with its own copy of the
// gain expression. The cached selection must be that scan's: same vertex,
// same target, same gain bits. A mismatch means a slot survived a move that
// changed its inputs, a boundary vertex was never listed, the incremental
// weight bookkeeping drifted, or the tie-break changed. Call sites guard with
// check.Enabled.
func (r *klRun) assertSelection(x int) {
	g, parts, n, p := r.g, r.parts, len(r.g.VW), len(r.partW)
	freshW := make([]int64, p)
	for u := 0; u < n; u++ {
		freshW[parts[u]] += g.VW[u]
	}
	locked := make([]bool, n)
	for _, m := range r.s.moves {
		locked[m.v] = true
	}
	var selV, selTo int32 = -1, -1
	selGain := 0.0
	extW := make([]int64, p)
	var touched []int32
	for v := int32(0); v < int32(n); v++ {
		if locked[v] {
			continue
		}
		i := parts[v]
		touched = touched[:0]
		g.Neighbors(v, func(u int32, w int64) {
			if extW[parts[u]] == 0 {
				touched = append(touched, parts[u])
			}
			extW[parts[u]] += w
		})
		wv := g.VW[v]
		for _, j := range touched {
			if j == i || (r.hardBalance && freshW[j]+wv > r.limit) {
				continue
			}
			gm := 0.0
			if i == r.orig[v] {
				gm -= r.cfg.Alpha * float64(wv)
			}
			if j == r.orig[v] {
				gm += r.cfg.Alpha * float64(wv)
			}
			gain := float64(extW[j]-extW[i]) + gm
			if !r.hardBalance {
				gain += 2 * r.cfg.Beta * float64(wv) * float64(freshW[i]-freshW[j]-wv)
			}
			if selV < 0 || gain > selGain || (gain >= selGain && v < selV) {
				selV, selTo, selGain = v, j, gain
			}
		}
		for _, j := range touched {
			extW[j] = 0
		}
	}
	got := klSlot{v: -1, to: -1}
	if x >= 0 {
		got = r.s.slots[x]
	}
	check.Assertf(got.v == selV && got.to == selTo && (selV < 0 || math.Float64bits(got.gain) == math.Float64bits(selGain)),
		"core.runKL: cache selects %d->%d (gain %v), brute force rescans %d->%d (gain %v)", got.v, got.to, got.gain, selV, selTo, selGain)
}
