package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"pared/internal/forest"
	"pared/internal/graph"
)

// verifyInput is what a finished rep hands to the output checks.
type verifyInput struct {
	ranks        int
	consistency  error // Engine.CheckConsistency, identical on every rank
	owner        []int32
	forest       *forest.Forest // gathered on rank 0
	numRoots     int
	globalLeaves int64

	solve       bool
	unconverged int
	linf        float64
	maxLinf     float64
}

// numChecks is how many checks one rep of w attempts on its own; sameAs adds
// crossChecks more.
func numChecks(w *workload) int {
	if w.solve {
		return 7
	}
	return 5
}

const crossChecks = 3

func (res *repResult) check(ok bool, format string, args ...any) {
	res.attempted++
	if !ok {
		res.failed++
		res.failures = append(res.failures, fmt.Sprintf(format, args...))
	}
}

// verify runs the per-rep output checks.
func (res *repResult) verify(in *verifyInput) {
	res.check(in.consistency == nil, "CheckConsistency: %v", in.consistency)

	leaf := in.forest.LeafMesh()
	err := leaf.Mesh.Validate()
	res.check(err == nil, "leaf mesh Validate: %v", err)
	err = leaf.Mesh.CheckConforming()
	res.check(err == nil, "leaf mesh CheckConforming: %v", err)

	g := graph.CoarseDual(in.numRoots, leaf.Mesh, leaf.LeafRoot)
	res.check(g.TotalVW() == in.globalLeaves && int64(leaf.Mesh.NumElems()) == in.globalLeaves,
		"sum of G.VW %d, gathered leaves %d, engine's global leaf count %d", g.TotalVW(), leaf.Mesh.NumElems(), in.globalLeaves)

	bad := -1
	for i, o := range in.owner {
		if o < 0 || int(o) >= in.ranks {
			bad = i
			break
		}
	}
	res.check(bad < 0 && len(in.owner) == in.numRoots, "owner map: %d entries for %d trees, first invalid entry %d", len(in.owner), in.numRoots, bad)

	if in.solve {
		res.check(in.unconverged == 0, "%d solves did not converge", in.unconverged)
		res.check(in.linf <= in.maxLinf, "final L-inf error %.3g above the bound %.3g", in.linf, in.maxLinf)
	}

	h := fnv.New64a()
	var b [8]byte
	for _, o := range in.owner {
		binary.LittleEndian.PutUint32(b[:4], uint32(o))
		_, _ = h.Write(b[:4]) // a hash.Hash never fails
	}
	res.ownerHash = h.Sum64()
	h.Reset()
	for _, l := range in.forest.CanonicalLeaves() {
		for _, v := range l {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			_, _ = h.Write(b[:])
		}
	}
	res.leafHash = h.Sum64()
}

// sameAs checks that this rep made the decisions of ref, an earlier rep of
// the same instance, and ended where it did: the program is deterministic.
func (res *repResult) sameAs(ref *repResult) {
	if res.err != nil {
		res.attempted += crossChecks // a dead rep fails these like all its others
		res.failed += crossChecks
		return
	}
	res.check(slices.Equal(res.epochs, ref.epochs), "per-epoch leaf counts and rebalance outcomes differ from the reference rep's")
	res.check(res.ownerHash == ref.ownerHash, "final owner map hash %016x differs from the reference rep's %016x", res.ownerHash, ref.ownerHash)
	res.check(res.leafHash == ref.leafHash, "canonical leaf hash %016x differs from the reference rep's %016x", res.leafHash, ref.leafHash)
}
