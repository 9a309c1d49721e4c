package refine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pared/internal/forest"
	"pared/internal/mesh"
)

// splicer is what a migration round trip asks of either refiner.
type splicer interface {
	RemoveTree(root int32)
	InsertTree(root int32)
}

// roundTrip sends trees moved out of f and back in, in reverse order, the way
// migration splices them, and returns the payloads. The trees that come back
// take vertex slots the departed ones freed.
func roundTrip(f *forest.Forest, r splicer, moved []int32) []*forest.TreePayload {
	var ps []*forest.TreePayload
	for _, root := range moved {
		ps = append(ps, f.ExtractTree(root))
		r.RemoveTree(root)
		f.RemoveTree(root)
	}
	for i := len(ps) - 1; i >= 0; i-- {
		f.InsertTree(ps[i])
		r.InsertTree(ps[i].Root)
	}
	return ps
}

// sameForest reports whether two forests are equal field for field, except
// for vnum, ExtractTree's numbering scratch: it is all -1 between calls and as
// long as the vertex table was at the last extraction, so it records when a
// forest last extracted a tree (the "remote" step extracts from one twin
// only), not what the forest holds. reflect.DeepEqual cannot be handed an
// unexported field on its own, so those are compared as %#v prints them,
// which is exact and tells a nil slice from an empty one as DeepEqual does.
func sameForest(a, b *forest.Forest) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		switch f := va.Type().Field(i); {
		case f.Name == "vnum":
		case f.IsExported():
			if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
				return false
			}
		case fmt.Sprintf("%#v", fa) != fmt.Sprintf("%#v", fb):
			return false
		}
	}
	return true
}

// forestDiff names the first public part in which two forests differ.
func forestDiff(a, b *forest.Forest) string {
	switch {
	case !reflect.DeepEqual(a.Nodes, b.Nodes):
		return "node tables differ"
	case !reflect.DeepEqual(a.Coords, b.Coords):
		return "coordinates differ"
	case !reflect.DeepEqual(a.VIDs, b.VIDs):
		return "vertex IDs differ"
	case !slices.Equal(a.Roots(), b.Roots()):
		return "held trees differ"
	}
	return "free lists, vertex use counts, vertex index or leaf counts differ"
}

// leafListDiff returns, for the first record in table order whose list of
// incident leaves differs from the reference's list of the same edge, named
// by its global pair, a description of the difference; or "" if every list
// is equal, element for element and in order, and the reference lists no
// other edge. The order is the closure's order, so a list that holds the
// right leaves in another order is a difference too.
func leafListDiff(got *Refiner, ref *refRefiner) string {
	lists := 0
	for i := int32(0); i < got.edges.n; i++ {
		e := got.edges.at(i)
		if e.a < 0 || len(e.leaves) == 0 {
			continue
		}
		lists++
		s := got.edgeSplit(e.a, e.b)
		if want := ref.edgeLeaves[s]; !slices.Equal(e.leaves, want) {
			return fmt.Sprintf("edge %v lists leaves %v, reference %v", s, e.leaves, want)
		}
	}
	if lists != len(ref.edgeLeaves) {
		return fmt.Sprintf("%d edges list leaves, reference %d", lists, len(ref.edgeLeaves))
	}
	return ""
}

// TestEdgeTableMatchesReference drives the edge-table refiner and the
// map-keyed reference over twin forests through seeded random chains of every
// operation a refiner offers — refinement and closure, remote splits taken
// by a third forest, coarsening, tree round trips, and LEPP — and requires
// after every step forests equal field for field (node table with Dead flags
// and free list, vertex table with use counts, free list and index, held
// trees), equal answers from every call, and every edge's incident leaves
// listed in the same order.
func TestEdgeTableMatchesReference(t *testing.T) {
	for name, m := range coarsenMeshes() {
		for seed := int64(1); seed <= 4; seed++ {
			edgeTableChain(t, name, m, seed)
		}
	}
}

func edgeTableChain(t *testing.T, name string, m *mesh.Mesh, seed int64) {
	got, ref := NewRefiner(forest.FromMesh(m)), newRefRefiner(forest.FromMesh(m))
	rng := rand.New(rand.NewSource(seed))
	ops := []string{"refine", "remote", "coarsen", "round trip", "lepp"}
	var perm []int
	var history []EdgeSplit // every split either refiner reported
	// Six refinement steps deepen the forest first; then every operation
	// runs six times, in a random order.
	for step := 0; step < 7*len(ops); step++ {
		op := ops[0]
		if step >= len(ops) {
			if len(perm) == 0 {
				perm = rng.Perm(len(ops))
			}
			op = ops[perm[0]]
			perm = perm[1:]
		}
		if grows := op == "refine" || op == "remote" || op == "lepp"; grows && got.F.NumLeaves() > 1500 {
			op = "coarsen"
		}
		same := func(call string, g, w any) {
			t.Helper()
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s seed %d step %d (%s): %s = %v, reference %v", name, seed, step, op, call, g, w)
			}
		}
		gl, rl := got.F.Leaves(), ref.F.Leaves()
		switch op {
		case "refine":
			// Half the picks go to the deepest third of the leaves, so depth
			// grows.
			deep := slices.Clone(gl)
			slices.SortStableFunc(deep, func(a, b forest.NodeID) int { return int(got.F.Node(b).Level - got.F.Node(a).Level) })
			for i := 0; i < 1+len(gl)/16; i++ {
				k := rng.Intn(len(gl))
				if i%2 == 0 {
					k = slices.Index(gl, deep[rng.Intn(1+len(deep)/3)])
				}
				got.RefineLeaf(gl[k])
				ref.RefineLeaf(rl[k])
			}
			same("Closure", got.Closure(), ref.Closure())
		case "remote":
			// A neighbour holding the same mesh refines its own way; its
			// splits reach the twins by global IDs, some at once and some
			// only after the twins' own closures have caught up.
			remote := NewRefiner(forest.New(m.Dim))
			for _, root := range got.F.Roots() {
				remote.F.InsertTree(got.F.ExtractTree(root))
				remote.InsertTree(root)
			}
			leaves := remote.F.Leaves()
			for i := 0; i < 1+len(leaves)/16; i++ {
				remote.RefineLeaf(leaves[rng.Intn(len(leaves))])
			}
			remote.Closure()
			splits := remote.TakeNewSplits()
			// A pair that is not canonical, or is unknown, names no edge.
			s := splits[rng.Intn(len(splits))]
			splits = append(splits, EdgeSplit{A: s.B, B: s.A}, EdgeSplit{A: s.A, B: s.A}, MakeEdgeSplit(1<<40, 1<<41))
			slices.SortFunc(splits, EdgeSplit.Compare)
			for round := 0; round < 3; round++ {
				for _, s := range splits {
					same("IsSplit", got.IsSplit(s), ref.IsSplit(s))
					same("MarkSplitByID", got.MarkSplitByID(s), ref.MarkSplitByID(s))
				}
				same("Closure", got.Closure(), ref.Closure())
			}
		case "coarsen":
			salt, frac := rng.Uint64(), uint64(1+rng.Intn(4))
			same("Coarsen", got.Coarsen(purePredicate(got.F, salt, frac)), ref.Coarsen(purePredicate(ref.F, salt, frac)))
		case "round trip":
			var moved []int32
			for _, root := range got.F.Roots() {
				if rng.Intn(3) == 0 {
					moved = append(moved, root)
				}
			}
			same("payloads", roundTrip(got.F, got, moved), roundTrip(ref.F, ref, moved))
		case "lepp":
			k := rng.Intn(len(gl))
			same("RefineLeafLEPP", got.RefineLeafLEPP(gl[k]), ref.RefineLeafLEPP(rl[k]))
		}
		if !sameForest(got.F, ref.F) {
			t.Fatalf("%s seed %d step %d (%s): %s", name, seed, step, op, forestDiff(got.F, ref.F))
		}
		if d := leafListDiff(got, ref); d != "" {
			t.Fatalf("%s seed %d step %d (%s): %s", name, seed, step, op, d)
		}
		gs, rs := got.TakeNewSplits(), ref.TakeNewSplits()
		same("TakeNewSplits", gs, rs)
		history = append(history, gs...)
		for _, s := range history {
			same("IsSplit", got.IsSplit(s), ref.IsSplit(s))
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("%s seed %d step %d (%s): %v", name, seed, step, op, err)
		}
	}
}

// TestCheckInvariantsCatchesCorruptTable breaks each structural rule of the
// edge table once, and the rule that no record names a free vertex slot, and
// requires CheckInvariants to name it.
func TestCheckInvariantsCatchesCorruptTable(t *testing.T) {
	cases := []struct {
		rule    string
		corrupt func(r *Refiner, k uint64, i int32)
		want    string
	}{
		{"a live record's key packs its endpoints", func(r *Refiner, _ uint64, i int32) {
			e := r.edges.at(i)
			e.b++
		}, "of edge {"},
		{"a record has a leaf or a split mark", func(r *Refiner, _ uint64, _ int32) {
			// Opposite corners of the square: no leaf ever has this edge.
			r.edges.get(0, int32(len(coarsenMeshes()["2d"].Verts)-1))
		}, "neither a leaf nor a split mark"},
		{"no free record is reachable from the index", func(r *Refiner, _ uint64, i int32) {
			r.edges.release(i)
		}, "which is not live"},
		{"the index holds every live record", func(r *Refiner, k uint64, _ int32) {
			r.edges.index.Delete(k)
		}, "live edge records"},
		{"no record names a free vertex slot", func(r *Refiner, _ uint64, _ int32) {
			// The forest frees the tree's vertices; the refiner keeps its
			// records, as a stale split mark would be kept.
			r.F.RemoveTree(r.F.Node(r.F.Leaves()[0]).Root)
		}, "names a free vertex slot"},
	}
	for _, tc := range cases {
		r := refinedForest(t, coarsenMeshes()["2d"], 1)
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("%s: before corruption: %v", tc.rule, err)
		}
		// The record of the first leaf's first edge.
		n := r.F.Node(r.F.Leaves()[0])
		k := edgeKey(n.Verts[0], n.Verts[1])
		i, _ := r.edges.index.Find(k)
		tc.corrupt(r, k, i)
		if err := r.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error containing %q", tc.rule, err, tc.want)
		}
	}
}
