package sfc

import (
	"math/rand"
	"sort"
	"testing"

	"pared/internal/meshgen"
)

// TestHilbert2DGolden pins the order-2 Hilbert curve on the 4×4 grid (the
// classic U-shape recursion, cell (0,0) first).
func TestHilbert2DGolden(t *testing.T) {
	want := [4][4]uint64{
		{0, 1, 14, 15}, // y = 0
		{3, 2, 13, 12}, // y = 1
		{4, 7, 8, 11},  // y = 2
		{5, 6, 9, 10},
	}
	for y := uint32(0); y < 4; y++ {
		for x := uint32(0); x < 4; x++ {
			if got := Hilbert2D(x, y, 2); got != want[y][x] {
				t.Errorf("Hilbert2D(%d,%d) = %d, want %d", x, y, got, want[y][x])
			}
		}
	}
}

// TestHilbertBijective checks that both Hilbert maps are bijections of the
// full grid at small orders — every index in [0, 2^(d·bits)) hit exactly once.
func TestHilbertBijective(t *testing.T) {
	const bits = 3
	seen2 := make(map[uint64]bool)
	for y := uint32(0); y < 1<<bits; y++ {
		for x := uint32(0); x < 1<<bits; x++ {
			d := Hilbert2D(x, y, bits)
			if d >= 1<<(2*bits) || seen2[d] {
				t.Fatalf("Hilbert2D(%d,%d) = %d out of range or duplicate", x, y, d)
			}
			seen2[d] = true
		}
	}
	seen3 := make(map[uint64]bool)
	for z := uint32(0); z < 1<<bits; z++ {
		for y := uint32(0); y < 1<<bits; y++ {
			for x := uint32(0); x < 1<<bits; x++ {
				d := Hilbert3D(x, y, z, bits)
				if d >= 1<<(3*bits) || seen3[d] {
					t.Fatalf("Hilbert3D(%d,%d,%d) = %d out of range or duplicate", x, y, z, d)
				}
				seen3[d] = true
			}
		}
	}
	// At the production key widths the grid cannot be enumerated; pin the
	// curve's last cell instead. Both curves end at (max, 0[, 0]) at every
	// order, so its index is all 2·31 / 3·21 key bits set — a key computed
	// in 32-bit arithmetic falls short.
	if got := Hilbert2D(1<<bits2D-1, 0, bits2D); got != 1<<(2*bits2D)-1 {
		t.Errorf("Hilbert2D end cell at %d bits = %#x, want %#x", bits2D, got, uint64(1<<(2*bits2D)-1))
	}
	if got := Hilbert3D(1<<bits3D-1, 0, 0, bits3D); got != 1<<(3*bits3D)-1 {
		t.Errorf("Hilbert3D end cell at %d bits = %#x, want %#x", bits3D, got, uint64(1<<(3*bits3D)-1))
	}
}

// TestHilbertAdjacency checks the defining property of a Hilbert curve:
// consecutive indices map to face-adjacent grid cells (Manhattan distance 1).
func TestHilbertAdjacency(t *testing.T) {
	const bits = 3
	cell2 := make(map[uint64][2]int)
	for y := 0; y < 1<<bits; y++ {
		for x := 0; x < 1<<bits; x++ {
			cell2[Hilbert2D(uint32(x), uint32(y), bits)] = [2]int{x, y}
		}
	}
	for d := uint64(1); d < 1<<(2*bits); d++ {
		a, b := cell2[d-1], cell2[d]
		if manhattan2(a, b) != 1 {
			t.Fatalf("Hilbert2D steps %d→%d jump from %v to %v", d-1, d, a, b)
		}
	}
	cell3 := make(map[uint64][3]int)
	for z := 0; z < 1<<bits; z++ {
		for y := 0; y < 1<<bits; y++ {
			for x := 0; x < 1<<bits; x++ {
				cell3[Hilbert3D(uint32(x), uint32(y), uint32(z), bits)] = [3]int{x, y, z}
			}
		}
	}
	for d := uint64(1); d < 1<<(3*bits); d++ {
		a, b := cell3[d-1], cell3[d]
		if manhattan3(a, b) != 1 {
			t.Fatalf("Hilbert3D steps %d→%d jump from %v to %v", d-1, d, a, b)
		}
	}
}

func manhattan2(a, b [2]int) int { return abs(a[0]-b[0]) + abs(a[1]-b[1]) }
func manhattan3(a, b [3]int) int { return abs(a[0]-b[0]) + abs(a[1]-b[1]) + abs(a[2]-b[2]) }
func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestSortByKeyOracle checks the radix sort against sort.SliceStable on random
// keys with many duplicates (so the stability/tie-break path is exercised).
func TestSortByKeyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(500)
		keys := make([]uint64, n)
		for i := range keys {
			// Small key space forces duplicates; occasional high bits
			// exercise the upper radix passes.
			keys[i] = uint64(rng.Intn(16))
			if rng.Intn(4) == 0 {
				keys[i] |= uint64(rng.Intn(8)) << 40
			}
		}
		order, pos := Order(keys)
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(a, b int) bool { return keys[want[a]] < keys[want[b]] })
		for k := range order {
			if order[k] != want[k] {
				t.Fatalf("trial %d: order[%d] = %d, want %d", trial, k, order[k], want[k])
			}
			if pos[order[k]] != int32(k) {
				t.Fatalf("trial %d: pos is not the inverse of order at %d", trial, k)
			}
		}
	}
}

// TestKeysMesh checks mesh-level key properties: determinism across calls,
// translation/scale invariance (keys come from the normalized centroid
// cloud), and that the 2D Hilbert order of a structured grid is a space-
// filling walk rather than a degenerate one (no key collisions).
func TestKeysMesh(t *testing.T) {
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	k1 := Keys(m, Hilbert)
	k2 := Keys(m, Hilbert)
	for e := range k1 {
		if k1[e] != k2[e] {
			t.Fatalf("Keys not deterministic at element %d", e)
		}
	}
	// Translate + scale the mesh: normalized keys must not move.
	m2 := meshgen.RectTri(8, 8, 99, 49, 103, 51) // 2x1 box offset far away... same 8x8 topology
	k3 := Keys(m2, Hilbert)
	for e := range k1 {
		if k1[e] != k3[e] {
			t.Fatalf("Keys not translation/scale invariant at element %d: %d vs %d", e, k1[e], k3[e])
		}
	}
	seen := make(map[uint64]bool)
	for _, k := range k1 {
		if seen[k] {
			t.Fatalf("duplicate key %d on a structured grid", k)
		}
		seen[k] = true
	}
	// 3D path smoke: all distinct as well.
	m3 := meshgen.BoxTet(3, 3, 3, 0, 0, 0, 1, 1, 1)
	seen3 := make(map[uint64]bool)
	for _, k := range Keys(m3, Hilbert) {
		seen3[k] = true
	}
	if len(seen3) < m3.NumElems()/6 {
		t.Fatalf("3D keys collapse: %d distinct of %d", len(seen3), m3.NumElems())
	}
}

// bandWeights folds a full assignment into per-band weight totals, failing the
// test if any band id is out of range.
func bandWeights(t *testing.T, owner []int32, vw []int64, p int) []int64 {
	t.Helper()
	w := make([]int64, p)
	for e, b := range owner {
		if b < 0 || int(b) >= p {
			t.Fatalf("element %d assigned out-of-range band %d", e, b)
		}
		w[b] += vw[e]
	}
	return w
}

// TestAssignProperties is the paper-bound property test: for random weights
// and part counts, the unsnapped assignment must be non-decreasing along the
// curve (bands are curve-contiguous) with every band ≤ W/p + maxw, and the
// snapped assignment must stay monotone with every band ≤ W/p + 2·maxw.
func TestAssignProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		p := 1 + rng.Intn(12)
		keys := make([]uint64, n)
		vw := make([]int64, n)
		var maxw, total int64
		for e := range keys {
			keys[e] = uint64(rng.Intn(64)) // duplicates on purpose
			vw[e] = int64(rng.Intn(20))    // zero weights on purpose
			if vw[e] > maxw {
				maxw = vw[e]
			}
			total += vw[e]
		}
		order, _ := Order(keys)
		var scratch AssignScratch

		fresh := Assign(order, vw, nil, p, false, nil, &scratch)
		checkMonotone(t, order, fresh, "unsnapped")
		if total > 0 {
			for b, w := range bandWeights(t, fresh, vw, p) {
				if bound := total/int64(p) + maxw; w > bound {
					t.Fatalf("trial %d: unsnapped band %d weight %d > bound %d", trial, b, w, bound)
				}
			}
		}

		// Random band-form old assignment to snap against: cut the curve at
		// p−1 random points.
		old := make([]int32, n)
		cuts := make([]int, p-1)
		for i := range cuts {
			cuts[i] = rng.Intn(n + 1)
		}
		sort.Ints(cuts)
		b, next := int32(0), 0
		for k, e := range order {
			for next < len(cuts) && cuts[next] <= k {
				b++
				next++
			}
			old[e] = b
		}

		snapped := Assign(order, vw, old, p, true, nil, &scratch)
		checkMonotone(t, order, snapped, "snapped")
		if total > 0 {
			for b, w := range bandWeights(t, snapped, vw, p) {
				if bound := total/int64(p) + 2*maxw; w > bound {
					t.Fatalf("trial %d: snapped band %d weight %d > bound %d", trial, b, w, bound)
				}
			}
		}

		// Snapping must never move an element the midpoint rule kept home.
		for e := range fresh {
			if fresh[e] == old[e] && snapped[e] != old[e] {
				t.Fatalf("trial %d: snapping moved element %d off its home band", trial, e)
			}
		}
	}
}

func checkMonotone(t *testing.T, order, owner []int32, label string) {
	t.Helper()
	for k := 1; k < len(order); k++ {
		if owner[order[k]] < owner[order[k-1]] {
			t.Fatalf("%s assignment not monotone along curve at position %d", label, k)
		}
	}
}

// TestAssignLocalMatchesGlobal checks the distributed identity the engine
// relies on: splitting the curve-ordered elements into per-rank runs and
// calling AssignLocal with each run's exclusive-scan offset reproduces the
// serial Assign exactly.
func TestAssignLocalMatchesGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		p := 1 + rng.Intn(8)
		ranks := 1 + rng.Intn(5)
		keys := make([]uint64, n)
		vw := make([]int64, n)
		var total int64
		for e := range keys {
			keys[e] = uint64(rng.Intn(32))
			vw[e] = int64(rng.Intn(9))
			total += vw[e]
		}
		order, _ := Order(keys)
		old := make([]int32, n)
		for e := range old {
			old[e] = int32(rng.Intn(p)) // arbitrary; only admissibility matters
		}
		var scratch AssignScratch
		want := Assign(order, vw, old, p, true, nil, &scratch)

		// Random contiguous split of the curve into `ranks` runs.
		bounds := make([]int, ranks+1)
		bounds[ranks] = n
		for i := 1; i < ranks; i++ {
			bounds[i] = rng.Intn(n + 1)
		}
		sort.Ints(bounds)
		got := make([]int32, n)
		offset := int64(0)
		for r := 0; r < ranks; r++ {
			lo, hi := bounds[r], bounds[r+1]
			elems := order[lo:hi]
			w := make([]int64, hi-lo)
			var local int64
			for i, e := range elems {
				w[i] = vw[e]
				local += vw[e]
			}
			out := make([]int32, hi-lo)
			AssignLocal(elems, w, offset, total, old, p, true, out)
			for i, e := range elems {
				got[e] = out[i]
			}
			offset += local
		}
		for e := range want {
			if got[e] != want[e] {
				t.Fatalf("trial %d: distributed AssignLocal disagrees with Assign at element %d: %d vs %d", trial, e, got[e], want[e])
			}
		}
	}
}

// TestAssignZeroTotal pins the degenerate no-weight path: everything keeps
// its old owner (or lands on band 0 with no history).
func TestAssignZeroTotal(t *testing.T) {
	keys := []uint64{3, 1, 2, 0}
	vw := []int64{0, 0, 0, 0}
	order, _ := Order(keys)
	var scratch AssignScratch
	out := Assign(order, vw, nil, 4, true, nil, &scratch)
	for e, b := range out {
		if b != 0 {
			t.Fatalf("zero-weight fresh assign: element %d on band %d", e, b)
		}
	}
	old := []int32{2, 0, 3, 1}
	out = Assign(order, vw, old, 4, true, out, &scratch)
	for e := range old {
		if out[e] != old[e] {
			t.Fatalf("zero-weight snap: element %d moved %d → %d", e, old[e], out[e])
		}
	}
}
