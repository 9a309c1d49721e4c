//go:build paredassert

package core

import (
	"strings"
	"testing"

	"pared/internal/graph"
)

// These tests corrupt runKL's move cache deliberately and require the
// paredassert layer to catch it; they compile only under the tag.

func expectAssert(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("expected a paredassert panic containing %q, got none", substr)
		}
		msg, _ := r.(string)
		if !strings.HasPrefix(msg, "paredassert: ") || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not look like the expected assertion %q", r, substr)
		}
	}()
	f()
}

func halfSplit(n int) []int32 {
	parts := make([]int32, n)
	for v := range parts {
		if v >= n/2 {
			parts[v] = 1
		}
	}
	return parts
}

// newKLRun is runKL's set-up up to the first pass: part weights, the
// scratch buffers and a freshly scored boundary list.
func newKLRun(g *graph.Graph, parts, orig []int32, p int) *klRun {
	s := &klScratch{listed: make([]bool, g.N()), extW: make([]int64, p)}
	r := &klRun{s: s, g: g, parts: parts, orig: orig, partW: make([]int64, p), cfg: Config{}.withDefaults()}
	for v, w := range g.VW {
		r.partW[parts[v]] += w
	}
	r.list()
	return r
}

// TestKLSelectionPassesBruteForce runs the assertion on an untampered cache:
// this file only builds with check.Enabled == true, so every pick of these
// runKL calls — soft, hard, ties everywhere — is compared with the full
// rescan, and every move with PartitionWeights.
func TestKLSelectionPassesBruteForce(t *testing.T) {
	g := gridGraph(6)
	parts := halfSplit(g.N())
	orig := append([]int32(nil), parts...)
	cfg := Config{}.withDefaults()
	runKL(nil, g, parts, orig, 2, cfg, false)
	runKL(nil, g, parts, orig, 2, cfg, true)
}

// TestKLCorruptedCacheTrips plants a wrong gain in a cached slot no move has
// invalidated and verifies the brute-force rescan rejects the selection.
func TestKLCorruptedCacheTrips(t *testing.T) {
	g := gridGraph(4)
	parts := halfSplit(g.N())
	r := newKLRun(g, parts, append([]int32(nil), parts...), 2)
	if len(r.s.slots) == 0 {
		t.Fatal("no cached moves to corrupt")
	}
	r.s.slots[len(r.s.slots)-1].gain += 1000 // stale/corrupt cached gain
	expectAssert(t, "brute force", func() { r.pick(0) })
}

// TestKLWeightDriftTrips corrupts the incremental part-weight bookkeeping and
// verifies the brute-force rescan (which recomputes part weights from parts)
// rejects a selection whose balance term was scored from the drifted weights.
func TestKLWeightDriftTrips(t *testing.T) {
	g := gridGraph(4)
	parts := halfSplit(g.N())
	r := newKLRun(g, parts, append([]int32(nil), parts...), 2)
	r.partW[0] += 7              // simulated drift
	const everyPart = ^uint64(0) // re-score every slot from the drifted weights
	expectAssert(t, "brute force", func() { r.pick(everyPart) })
}

// TestRepartitionRejectsZeroEdgeWeight: the positive-edge-weight precondition
// is checked on entry (a zero-weight edge is what a hier penalty below 1 used
// to hand phase A).
func TestRepartitionRejectsZeroEdgeWeight(t *testing.T) {
	g := gridGraph(4)
	g.EW[3] = 0
	expectAssert(t, "not positive", func() { Repartition(g, halfSplit(g.N()), 2, Config{}) })
}
