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
func newKLRun(g *graph.Graph, parts, orig []int32, p int, hardBalance bool) *klRun {
	s := &klScratch{state: make([]klState, g.N()), extW: make([]int64, p)}
	r := &klRun{s: s, g: g, parts: parts, orig: orig, partW: make([]int64, p), cfg: Config{}.withDefaults(), hardBalance: hardBalance}
	var total int64
	for v, w := range g.VW {
		r.partW[parts[v]] += w
		total += w
	}
	if hardBalance {
		r.limit = int64(float64(total) / float64(p) * (1 + eps))
	}
	r.list()
	return r
}

// slotOf returns the index of v's slot; the test fails if v has none.
func slotOf(t *testing.T, r *klRun, v int32) int {
	t.Helper()
	for x, sl := range r.s.slots {
		if sl.v == v {
			return x
		}
	}
	t.Fatalf("vertex %d has no slot", v)
	return -1
}

// pathPair is the path 0–1–2–3 in parts 0, 0, 1, 1 with a heavy middle
// edge: the first soft move is vertex 1 into part 1, which takes away the
// only cross edge of vertex 2 and hands vertex 0 one.
func pathPair() (*graph.Graph, []int32) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 10)
	b.AddEdge(2, 3, 1)
	return b.Build(), []int32{0, 0, 1, 1}
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
	r := newKLRun(g, parts, append([]int32(nil), parts...), 2, false)
	if len(r.s.slots) == 0 {
		t.Fatal("no cached moves to corrupt")
	}
	r.s.slots[len(r.s.slots)-1].gain += 1000 // stale/corrupt cached gain
	expectAssert(t, "brute force", func() { r.pick(-1, -1) })
}

// TestKLWeightDriftTrips corrupts the incremental part-weight bookkeeping and
// verifies the brute-force rescan (which recomputes part weights from parts)
// rejects a selection whose balance term was scored from the drifted weights.
func TestKLWeightDriftTrips(t *testing.T) {
	g := gridGraph(4)
	parts := halfSplit(g.N())
	r := newKLRun(g, parts, append([]int32(nil), parts...), 2, false)
	r.partW[0] += 7 // simulated drift
	// Re-walk every slot from the drifted weights: all are dirty, and with
	// p = 2 every part set meets the move 0 → 1 pick is told of.
	for _, sl := range r.s.slots {
		r.s.state[sl.v] = klDirty
	}
	expectAssert(t, "brute force", func() { r.pick(0, 1) })
}

// TestKLLostClosedBitTrips: two separate cross edges 0–1 and 2–3 in a
// hard-balanced 2-way split where both parts are full, so every slot lists
// the other part as closed. Vertex 3's slot loses that bit; then vertex 0
// moves out of part 0, reopening it. Vertex 3 is no neighbour of vertex 0, so
// only its closed set could have sent it to a re-walk, and the cache keeps
// "no admissible move" where the rescan finds 3 → 0.
func TestKLLostClosedBitTrips(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	parts := []int32{0, 1, 0, 1}
	r := newKLRun(g, parts, append([]int32(nil), parts...), 2, true)
	x3 := slotOf(t, r, 3)
	if sl := r.s.slots[x3]; sl.to >= 0 || sl.deps&partBit(0) == 0 {
		t.Fatalf("slot of vertex 3 is %+v, want no move with part 0 closed", sl)
	}
	r.s.slots[x3].deps &^= partBit(0) // planted: the closed set lost part 0
	x0 := slotOf(t, r, 0)
	r.s.slots[x0].to = 1 // part 1 is full too: plant the move that reopens part 0
	sel, from := r.move(x0)
	expectAssert(t, "brute force", func() { r.pick(from, sel.to) })
}

// TestKLWrongCachedExtTrips: after the first soft move, vertex 0 is a freshly
// listed, clean slot whose part set meets the move, so the next pick
// reweighs it from its candidate cache; a wrong cached ext must trip.
func TestKLWrongCachedExtTrips(t *testing.T) {
	g, parts := pathPair()
	r := newKLRun(g, parts, append([]int32(nil), parts...), 2, false)
	sel, from := r.move(r.pick(-1, -1))
	if sel.v != 1 {
		t.Fatalf("first move is of vertex %d, want 1", sel.v)
	}
	x0 := slotOf(t, r, 0)
	if c := r.s.cands[x0]; c.n != 1 || r.s.state[0] != klListed {
		t.Fatalf("vertex 0: cache %+v, state %d; want one candidate, clean", c, r.s.state[0])
	}
	r.s.cands[x0].ext[0] += 100 // planted: wrong cached ext
	expectAssert(t, "brute force", func() { r.pick(from, sel.to) })
}

// TestKLCleanNeighbourTrips: the first soft move takes vertex 1 into part 1
// and marks its neighbour 2 dirty. Planted: vertex 2 left clean, so the pick
// reweighs its cached move 2 → 0 (ext +9, now stale: its only cross edge is
// gone) instead of walking it.
func TestKLCleanNeighbourTrips(t *testing.T) {
	g, parts := pathPair()
	r := newKLRun(g, parts, append([]int32(nil), parts...), 2, false)
	sel, from := r.move(r.pick(-1, -1))
	if sel.v != 1 || r.s.state[2] != klDirty {
		t.Fatalf("first move is of vertex %d, vertex 2 state %d; want 1 and dirty", sel.v, r.s.state[2])
	}
	r.s.state[2] = klListed // planted: a moved vertex's neighbour left clean
	expectAssert(t, "brute force", func() { r.pick(from, sel.to) })
}

// TestRepartitionRejectsZeroEdgeWeight: the positive-edge-weight precondition
// is checked on entry (a zero-weight edge is what a hier penalty below 1 used
// to hand phase A).
func TestRepartitionRejectsZeroEdgeWeight(t *testing.T) {
	g := gridGraph(4)
	g.EW[3] = 0
	expectAssert(t, "not positive", func() { Repartition(g, halfSplit(g.N()), 2, Config{}) })
}
