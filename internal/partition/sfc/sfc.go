// Package sfc implements space-filling-curve repartitioning of the coarse
// element set, following Burstedde & Holke's coarse-mesh partitioning for
// tree-based AMR: order the coarse elements along a Hilbert curve through
// their centroids, weight each element by its refinement-tree leaf count, and
// slice the total weight range into P equal bands. Because the curve order
// is a pure function of the (replicated, run-invariant) coarse geometry,
// every rank derives the same order locally; the only distributed
// quantity is the weights, and a rank that knows its global weight offset —
// one exclusive-scan collective — can place all of its elements without any
// rank ever gathering the graph. No coordinator, no serial refinement on the
// critical path, and migration-aware band snapping keeps elements home when
// either adjacent cut would do.
//
// The package is deliberately communication-free: it computes keys, orders
// and band assignments from slices. The engine (internal/pared) supplies the
// collectives; the serial experiments call the same kernels with the full
// weight vector.
package sfc

import (
	"math"

	"pared/internal/geom"
	"pared/internal/mesh"
)

// Curve names the space-filling curve Keys follows. Hilbert is the only one:
// every curve step moves to a face-adjacent cell, so curve-contiguous bands
// are geometrically compact. The type survives as Keys' second parameter only
// because bench/probe.go passes it.
type Curve int

// Hilbert is the curve of every caller.
const Hilbert Curve = iota

// Bits per axis of the quantized centroid grid: 31 in 2D and 21 in 3D fill
// 62/63 bits of the key, so distinct cells never collide in the curve index
// and ties happen only for centroids in the same cell (broken by element id).
const (
	bits2D = 31
	bits3D = 21
)

// Hilbert2D returns the Hilbert curve index of cell (x, y) on the 2^bits ×
// 2^bits grid — the classic quadrant-rotation formulation: walk the bits from
// most to least significant, accumulate the quadrant's offset, and rotate the
// remaining coordinates into the quadrant's frame.
func Hilbert2D(x, y uint32, bits uint) uint64 {
	var d uint64
	for s := uint32(1) << (bits - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s != 0 {
			rx = 1
		}
		if y&s != 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the lower bits into this quadrant's orientation.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - (x & (s - 1))
				y = s - 1 - (y & (s - 1))
			}
			x, y = y, x
		}
	}
	return d
}

// Hilbert3D returns the Hilbert curve index of cell (x, y, z) on the cubic
// 2^bits grid via Skilling's transpose algorithm: convert the axes to the
// "transposed" Hilbert form in place, then interleave the transposed bits.
func Hilbert3D(x, y, z uint32, bits uint) uint64 {
	var X [3]uint32
	X[0], X[1], X[2] = x, y, z
	// Inverse undo of the Gray-code excess (Skilling, AxestoTranspose).
	for q := uint32(1) << (bits - 1); q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < 3; i++ {
			if X[i]&q != 0 {
				X[0] ^= p
			} else {
				t := (X[0] ^ X[i]) & p
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
	// Gray encode.
	X[1] ^= X[0]
	X[2] ^= X[1]
	var t uint32
	for q := uint32(1) << (bits - 1); q > 1; q >>= 1 {
		if X[2]&q != 0 {
			t ^= q - 1
		}
	}
	X[0] ^= t
	X[1] ^= t
	X[2] ^= t
	// Interleave the transposed bits, axis 0 most significant within each
	// bit plane.
	var d uint64
	for b := int(bits) - 1; b >= 0; b-- {
		d = d<<3 | uint64(X[0]>>uint(b)&1)<<2 | uint64(X[1]>>uint(b)&1)<<1 | uint64(X[2]>>uint(b)&1)
	}
	return d
}

// Keys returns the curve index of every element's centroid. The centroid
// cloud's bounding box is normalized per axis onto the quantization grid, so
// keys are invariant under translation and per-axis scaling of the mesh. The
// computation is a pure function of the mesh (sequential float arithmetic,
// no accumulation order choices), so every rank that holds the replicated
// coarse mesh derives identical keys.
func Keys(m *mesh.Mesh, _ Curve) []uint64 {
	n := m.NumElems()
	cents := make([]geom.Vec3, n)
	box := geom.EmptyAABB()
	for e := 0; e < n; e++ {
		c := m.Centroid(e)
		cents[e] = c
		box.Extend(c)
	}
	keys := make([]uint64, n)
	if n == 0 {
		return keys
	}
	bits := uint(bits2D)
	if m.Dim == mesh.D3 {
		bits = bits3D
	}
	ext := box.Size()
	sx := quantScale(ext.X, bits)
	sy := quantScale(ext.Y, bits)
	sz := quantScale(ext.Z, bits)
	for e := 0; e < n; e++ {
		x := quantize(cents[e].X-box.Min.X, sx, bits)
		y := quantize(cents[e].Y-box.Min.Y, sy, bits)
		if m.Dim == mesh.D3 {
			z := quantize(cents[e].Z-box.Min.Z, sz, bits)
			keys[e] = Hilbert3D(x, y, z, bits)
		} else {
			keys[e] = Hilbert2D(x, y, bits)
		}
	}
	return keys
}

// quantScale maps an axis extent to cells-per-unit; a degenerate axis (all
// centroids equal) collapses to cell 0.
func quantScale(extent float64, bits uint) float64 {
	if extent <= 0 {
		return 0
	}
	return float64(uint64(1)<<bits) / extent
}

// quantize maps offset o (≥ 0) at scale s into [0, 2^bits − 1].
func quantize(o, s float64, bits uint) uint32 {
	q := uint64(math.Floor(o * s))
	if max := uint64(1)<<bits - 1; q > max {
		q = max
	}
	return uint32(q)
}

// Order sorts element ids by ascending curve key — ties broken by element id,
// so the order is total and deterministic — and returns both the order
// (order[k] = element at curve position k) and its inverse (pos[e] = curve
// position of element e).
func Order(keys []uint64) (order, pos []int32) {
	n := len(keys)
	order = make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	var s SortScratch
	SortByKey(keys, order, &s)
	pos = make([]int32, n)
	for k, e := range order {
		pos[e] = int32(k)
	}
	return order, pos
}

// SortScratch holds the ping-pong buffers of SortByKey, reusable across
// calls.
type SortScratch struct {
	key, tmpKey []uint64
	tmpIdx      []int32
}

// SortByKey sorts idx ascending by keys[idx[i]], ties keeping the current
// slice order (the sort is stable), via LSD radix passes over the key bytes.
// Passes whose byte is constant across all keys are skipped, so a 2D mesh
// whose keys fit 16 bits pays two passes, not eight. Steady-state zero-alloc:
// scratch grows once and is reused.
func SortByKey(keys []uint64, idx []int32, s *SortScratch) {
	n := len(idx)
	if n < 2 {
		return
	}
	if cap(s.key) < n {
		s.key = make([]uint64, n)
		s.tmpKey = make([]uint64, n)
		s.tmpIdx = make([]int32, n)
	}
	key := s.key[:n]
	tmpKey := s.tmpKey[:n]
	tmpIdx := s.tmpIdx[:n]
	// Gather the keys once so each pass streams flat arrays.
	allOr, allAnd := uint64(0), ^uint64(0)
	for i, e := range idx {
		k := keys[e]
		key[i] = k
		allOr |= k
		allAnd &= k
	}
	for shift := uint(0); shift < 64; shift += 8 {
		if (allOr>>shift)&0xff == (allAnd>>shift)&0xff {
			continue // this byte is constant across all keys
		}
		var count [256]int32
		for _, k := range key {
			count[k>>shift&0xff]++
		}
		sum := int32(0)
		for b := 0; b < 256; b++ {
			c := count[b]
			count[b] = sum
			sum += c
		}
		for i := 0; i < n; i++ {
			b := key[i] >> shift & 0xff
			j := count[b]
			count[b]++
			tmpKey[j] = key[i]
			tmpIdx[j] = idx[i]
		}
		copy(key, tmpKey)
		copy(idx, tmpIdx)
	}
}

// bandOf returns the band whose range contains the weight midpoint of the
// interval [a, a+w) on the axis [0, total).
func bandOf(a, w, total int64, p int) int32 {
	j := (2*a + w) * int64(p) / (2 * total)
	if j >= int64(p) {
		j = int64(p) - 1
	}
	return int32(j)
}

// admissible returns the contiguous range of bands whose open weight range
// (c_j, c_{j+1}), c_j = j·total/p, intersects the element interval [a, b):
// the bands an element touching a cut may legitimately live in. For w = 0 the
// range may be empty (hi < lo).
func admissible(a, w, total int64, p int) (lo, hi int32) {
	b := a + w
	l := a * int64(p) / total
	h := (b*int64(p) - 1) / total
	if l > int64(p)-1 {
		l = int64(p) - 1
	}
	if h > int64(p)-1 {
		h = int64(p) - 1
	}
	return int32(l), int32(h)
}

// AssignLocal maps one contiguous run of curve-ordered elements onto bands.
// elems lists element ids in curve order; w their weights; offset is the
// total weight of every element before elems[0] on the curve (the value the
// engine obtains from one exclusive scan); total is the global weight. old
// gives current owners (indexed by element id) for band snapping — an
// element whose current owner's band range still touches its weight interval
// stays put; pass snap=false (or nil old) to force pure midpoint banding.
// out[i] receives the band of elems[i].
//
// Snapped or not, the assignment is non-decreasing along the curve (an
// element can only snap within the bands its own interval touches, and those
// ranges advance monotonically), so the output is always a partition into
// curve-contiguous bands. Each band's weight is bounded by total/p + maxw
// unsnapped and total/p + 2·maxw snapped, maxw the largest element weight —
// the Burstedde–Holke style bound the property tests pin.
func AssignLocal(elems []int32, w []int64, offset, total int64, old []int32, p int, snap bool, out []int32) {
	// Bounds-establishing reslices: w and out run parallel to elems, so every
	// w[i]/out[i] below is provably in-bounds (and the compiler's BCE elides
	// the checks in the loops).
	w = w[:len(elems)]
	out = out[:len(elems)]
	if total <= 0 {
		// No weight anywhere: nothing to balance, keep every element home
		// (or band 0 when there is no current assignment).
		for i, e := range elems {
			if old != nil {
				out[i] = old[e]
			} else {
				out[i] = 0
			}
		}
		return
	}
	a := offset
	for i, e := range elems {
		we := w[i]
		j := bandOf(a, we, total, p)
		if snap && old != nil {
			if lo, hi := admissible(a, we, total, p); lo <= old[e] && old[e] <= hi {
				j = old[e]
			}
		}
		out[i] = j
		a += we
	}
}

// Assign computes the full band assignment of all elements from the complete
// weight vector: the serial reference the distributed scan must agree with,
// and the path the engine uses when the current ownership is not yet
// curve-contiguous (so a per-rank scan offset would not be a curve prefix).
// order is the curve order of all elements, vw the per-element weights
// (indexed by element id), old the current owners or nil. The result is
// indexed by element id.
func Assign(order []int32, vw []int64, old []int32, p int, snap bool, out []int32, scratch *AssignScratch) []int32 {
	n := len(order)
	if cap(out) < n {
		out = make([]int32, n)
	}
	out = out[:n]
	if cap(scratch.w) < n {
		scratch.w = make([]int64, n)
		scratch.band = make([]int32, n)
	}
	w := scratch.w[:n]
	band := scratch.band[:n]
	var total int64
	for k, e := range order {
		w[k] = vw[e]
		total += vw[e]
	}
	AssignLocal(order, w, 0, total, old, p, snap, band)
	for k, e := range order {
		out[e] = band[k]
	}
	return out
}

// AssignScratch holds Assign's reusable buffers.
type AssignScratch struct {
	w    []int64
	band []int32
}
