package graph

import (
	"math/rand"

	"pared/internal/kern"
)

// contractGrain is the kern chunk size for coarse-vertex adjacency
// construction.
const contractGrain = 512

// HeavyEdgeMatching computes a matching preferring heavy edges, visiting
// vertices in a seeded random order. match[v] is v's partner, or v itself if
// unmatched. If allow is non-nil, only pairs with allow(u, v) true are
// matched — PNR uses this to restrict matching to vertices in the same
// current part so contracted vertices inherit an unambiguous assignment.
//
// The greedy loop is serial: each visited vertex takes its best unmatched
// allowed neighbor under the (weight desc, index asc) tie-break. A parallel
// pre-score of every vertex's best neighbor reproduced this output at the
// cost of one more neighbor sweep per vertex, and did not pay for it on two
// cores (DESIGN.md §8).
func HeavyEdgeMatching(g *Graph, seed int64, allow func(u, v int32) bool) []int32 {
	n := g.N()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })

	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		best := int32(-1)
		var bestW int64 = -1
		g.Neighbors(v, func(u int32, w int64) {
			if match[u] >= 0 || u == v {
				return
			}
			if allow != nil && !allow(v, u) {
				return
			}
			if w > bestW || (w == bestW && (best < 0 || u < best)) {
				best, bestW = u, w
			}
		})
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	return match
}

// ContractScratch holds the intermediate buffers of ContractInto so the
// multilevel drivers (mlkl bisection, PNR's V-cycles) reuse them across
// levels and cycles instead of reallocating the whole hierarchy every time.
// Buffers grow to the largest level seen and stay there. The zero value is
// ready to use; a nil *ContractScratch means "allocate per call".
//
// Only intermediates live here — the returned Graph and fine→coarse map are
// always freshly allocated and safe to retain.
type ContractScratch struct {
	first, second []int32 // fine members of each coarse vertex (second -1)
	capOff        []int32 // candidate-slot prefix offsets per coarse vertex
	cnt           []int32 // deduplicated adjacency length per coarse vertex
	adjBuf        []int32 // candidate neighbor slots
	ewBuf         []int64 // candidate weight slots
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// Contract builds the coarse graph induced by a matching. It returns the
// coarse graph and the fine→coarse vertex map. Coarse vertex weights are sums
// of their constituents'; parallel edges merge by weight; edges internal to a
// matched pair disappear.
func Contract(g *Graph, match []int32) (*Graph, []int32) {
	return ContractInto(g, match, nil)
}

// ContractInto is Contract with caller-owned scratch (see ContractScratch).
//
// The construction is map-free and coarse-vertex-parallel: each coarse
// vertex owns a disjoint slot range of the candidate buffers sized by its
// constituents' degrees, gathers its coarse neighbors there, sorts and
// merges them in place (edge weights are int64, so merge order cannot change
// sums), and the final CSR is stitched together in coarse-vertex order. The
// result is byte-identical to the historical Builder-based contraction.
func ContractInto(g *Graph, match []int32, s *ContractScratch) (*Graph, []int32) {
	if s == nil {
		s = new(ContractScratch)
	}
	n := g.N()
	match = match[:n] // pin len(match) = g.N(): match[v] is in-bounds for every vertex
	f2c := make([]int32, n)
	for i := range f2c {
		f2c[i] = -1
	}
	nc := int32(0)
	for v := int32(0); v < int32(n); v++ {
		if f2c[v] >= 0 {
			continue
		}
		f2c[v] = nc
		if m := match[v]; m != v && m >= 0 {
			f2c[m] = nc
		}
		nc++
	}
	ncInt := int(nc)
	s.first = growI32(s.first, ncInt)
	s.second = growI32(s.second, ncInt)
	for c := 0; c < ncInt; c++ {
		s.second[c] = -1
	}
	for v := int32(0); v < int32(n); v++ {
		c := f2c[v]
		if m := match[v]; m != v && m >= 0 && m < v {
			s.second[c] = v // m was first (m < v, visited earlier)
			continue
		}
		s.first[c] = v
	}
	// Candidate slot capacity per coarse vertex: sum of member degrees.
	s.capOff = growI32(s.capOff, ncInt+1)
	s.capOff[0] = 0
	for c := 0; c < ncInt; c++ {
		d := g.Degree(s.first[c])
		if m := s.second[c]; m >= 0 {
			d += g.Degree(m)
		}
		s.capOff[c+1] = s.capOff[c] + int32(d)
	}
	s.adjBuf = growI32(s.adjBuf, int(s.capOff[ncInt]))
	s.ewBuf = growI64(s.ewBuf, int(s.capOff[ncInt]))
	s.cnt = growI32(s.cnt, ncInt)
	cnt := s.cnt
	kern.For(ncInt, contractGrain, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			//paredlint:allow scratchalias -- chunks write disjoint s.adjBuf/s.ewBuf segments delimited by s.capOff
			base := int(s.capOff[c])
			k := 0
			gather := func(v int32) {
				g.Neighbors(v, func(u int32, w int64) {
					cu := f2c[u]
					if cu == int32(c) {
						return // edge internal to the matched pair
					}
					s.adjBuf[base+k] = cu
					s.ewBuf[base+k] = w
					k++
				})
			}
			gather(s.first[c])
			if m := s.second[c]; m >= 0 {
				gather(m)
			}
			// Insertion-sort the gathered neighbors by coarse index, then
			// merge duplicates in place (ascending adjacency, exact sums).
			for i := base + 1; i < base+k; i++ {
				cu, w := s.adjBuf[i], s.ewBuf[i]
				j := i
				for j > base && s.adjBuf[j-1] > cu {
					s.adjBuf[j], s.ewBuf[j] = s.adjBuf[j-1], s.ewBuf[j-1]
					j--
				}
				s.adjBuf[j], s.ewBuf[j] = cu, w
			}
			m := base
			for i := base; i < base+k; i++ {
				if i > base && s.adjBuf[i] == s.adjBuf[m-1] {
					s.ewBuf[m-1] += s.ewBuf[i]
					continue
				}
				s.adjBuf[m], s.ewBuf[m] = s.adjBuf[i], s.ewBuf[i]
				m++
			}
			cnt[c] = int32(m - base)
		}
	})
	xadj := make([]int32, ncInt+1)
	vw := make([]int64, ncInt)
	for c := 0; c < ncInt; c++ {
		xadj[c+1] = xadj[c] + cnt[c]
		vw[c] = g.VW[s.first[c]]
		if m := s.second[c]; m >= 0 {
			vw[c] += g.VW[m]
		}
	}
	cg := &Graph{Xadj: xadj, VW: vw}
	nnz := int(xadj[ncInt])
	cg.Adj = make([]int32, nnz)
	cg.EW = make([]int64, nnz)
	kern.For(ncInt, contractGrain, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			//paredlint:allow scratchalias -- chunks only read s, each from its own capOff segment
			base := int(s.capOff[c])
			copy(cg.Adj[cg.Xadj[c]:cg.Xadj[c+1]], s.adjBuf[base:base+int(cnt[c])])
			copy(cg.EW[cg.Xadj[c]:cg.Xadj[c+1]], s.ewBuf[base:base+int(cnt[c])])
		}
	})
	return cg, f2c
}

// ProcGraph builds the processor-connectivity graph Hᵗ of §8: one vertex per
// processor, an edge between processors owning adjacent elements of g under
// the partition parts.
func ProcGraph(g *Graph, parts []int32, p int) *Graph {
	b := NewBuilder(p)
	for v := int32(0); v < int32(g.N()); v++ {
		g.Neighbors(v, func(u int32, w int64) {
			if parts[v] != parts[u] && v < u {
				b.AddEdge(parts[v], parts[u], 1)
			}
		})
	}
	return b.Build()
}

// AllPairsBFS returns hop distances between all vertex pairs (-1 where
// unreachable); intended for small graphs such as Hᵗ.
func (g *Graph) AllPairsBFS() [][]int32 {
	out := make([][]int32, g.N())
	for v := range out {
		out[v] = g.BFS(int32(v))
	}
	return out
}
