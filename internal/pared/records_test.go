package pared

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"pared/internal/forest"
	"pared/internal/geom"
	"pared/internal/graph"
	"pared/internal/mesh"
	"pared/internal/meshgen"
	"pared/internal/par"
	"pared/internal/partition"
	"pared/internal/refine"
)

// TestWeightRecordsRejectCorruptReport: a rank whose P2 report claims a tree
// it does not own, is cut short, names a root outside the coarse mesh, is not
// in ascending order or, on a decision that writes all of G, leaves a tree out
// must turn into an error from par.Run on the ranks that hold G — naming the
// reporting rank where there is one — under every strategy that ships
// records, with or without paredassert. A full decision is an engine's first
// and the first after a SetConfig; on a delta decision (the next one) a tree
// left out cannot be told from an unchanged one, and the report may be
// empty, so its corruptions append records instead of editing one.
func TestWeightRecordsRejectCorruptReport(t *testing.T) {
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	const liar = 2
	record := func(e *Engine, root int) []int64 {
		return append([]int64{int64(root), 1}, make([]int64, e.Coarse.FacetsPerElem())...)
	}
	corruptions := []struct {
		name    string
		corrupt func(e *Engine, rec []int64) []int64
		want    string
	}{
		{"a tree it does not own", func(e *Engine, rec []int64) []int64 {
			rec[0] = int64(slices.Index(e.Owner, 1))
			return rec
		}, "rank 2 reports weights of tree"},
		{"a short record", func(_ *Engine, rec []int64) []int64 { return rec[:len(rec)-1] }, "weight report of rank 2"},
		{"a root out of range", func(e *Engine, rec []int64) []int64 {
			rec[0] = int64(e.Coarse.NumElems())
			return rec
		}, "rank 2 reports weights of tree 128, outside"},
		{"a tree left out", func(e *Engine, rec []int64) []int64 { return rec[2+e.Coarse.FacetsPerElem():] }, "cover 127 of 128 trees"},
	}
	deltaCorruptions := []struct {
		name    string
		corrupt func(e *Engine, rec []int64) []int64
		want    string
	}{
		{"a tree it does not own", func(e *Engine, rec []int64) []int64 {
			return append(rec, record(e, slices.Index(e.Owner, 1))...)
		}, "which rank 1 owns"},
		{"not ascending", func(e *Engine, rec []int64) []int64 {
			mine := slices.Index(e.Owner, liar)
			next := mine + 1 + slices.Index(e.Owner[mine+1:], liar)
			return append(append(rec, record(e, next)...), record(e, mine)...)
		}, "not in ascending order"},
	}
	const first, afterSetConfig, delta = "the first decision", "the first decision after a SetConfig", "a delta decision"
	run := func(cfg Config, at string, corrupt func(e *Engine, rec []int64) []int64) error {
		return par.Run(4, func(c *par.Comm) {
			e := BootstrapWith(c, m, cfg)
			e.Adapt(est, 0.8, 0, 7)
			if at != first {
				e.Rebalance(true)
				e.Adapt(est, 0.7, 0, 7)
			}
			if at == afterSetConfig {
				if err := e.SetConfig(cfg); err != nil {
					panic(err)
				}
			}
			// The strategy table is shared by every engine of the process:
			// the lie goes into a copy.
			honest := e.cfg.strategy
			lying := *honest
			lying.exchange = func(e *Engine, rec []int64) [][]int64 {
				if e.Comm.Rank() == liar {
					rec = corrupt(e, slices.Clone(rec))
				}
				return honest.exchange(e, rec)
			}
			e.cfg.strategy = &lying
			e.Rebalance(true)
		})
	}
	for _, name := range []string{"pnr", "distrefine", "hier"} {
		cfg, err := ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []string{first, afterSetConfig} {
			for _, tc := range corruptions {
				if err := run(cfg, at, tc.corrupt); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s, %s, rank %d reporting %s: got %v, want an error containing %q", name, at, liar, tc.name, err, tc.want)
				}
			}
		}
		for _, tc := range deltaCorruptions {
			if err := run(cfg, delta, tc.corrupt); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s, rank %d reporting %s: got %v, want an error containing %q", name, delta, liar, tc.name, err, tc.want)
			}
		}
	}
}

// fuzzWorld is the fixed setting of the two decoder fuzz targets: 18 trees
// dealt round-robin to three ranks.
type fuzzWorld struct {
	m     *mesh.Mesh
	topo  coarseTopo
	owner []int32
	p     int
}

func newFuzzWorld() fuzzWorld {
	w := fuzzWorld{m: meshgen.RectTri(3, 3, 0, 0, 1, 1), p: 3}
	w.topo = newCoarseTopo(w.m)
	w.owner = make([]int32, w.m.NumElems())
	for i := range w.owner {
		w.owner[i] = int32(i % w.p)
	}
	return w
}

// fuzzWords reads data as little-endian int64 words when wide, else as one
// small signed word per byte — the form in which a mutation is likely to land
// on a valid index or just outside the valid range.
func fuzzWords(data []byte, wide bool) []int64 {
	var out []int64
	if !wide {
		for _, b := range data {
			out = append(out, int64(int8(b)))
		}
		return out
	}
	for ; len(data) >= 8; data = data[8:] {
		out = append(out, int64(binary.LittleEndian.Uint64(data)))
	}
	return out
}

// checkDual holds d, built from t, to graph.FromDual's CSR full: Xadj and Adj
// byte for byte, and every slot[r][j] naming the CSR entry of the edge from r
// to acrossOf(r)[j], or -1 where there is none.
func checkDual(d *coarseDual, t *coarseTopo, full *graph.Graph) error {
	if !slices.Equal(d.Xadj, full.Xadj) || !slices.Equal(d.Adj, full.Adj) {
		return fmt.Errorf("the topology-built CSR differs from graph.FromDual's")
	}
	for r := range d.slot {
		across := t.acrossOf(int32(r))
		for j, k := range d.slot[r] {
			if j >= t.nv || across[j] < 0 {
				if k != -1 {
					return fmt.Errorf("slot[%d][%d] = %d, but no tree lies across", r, j, k)
				}
			} else if k < d.Xadj[r] || k >= d.Xadj[r+1] || d.Adj[k] != across[j] {
				return fmt.Errorf("slot[%d][%d] = %d does not name the edge %d -> %d", r, j, k, r, across[j])
			}
		}
	}
	return nil
}

// TestDualFromTopology: the G the engine builds from its coarse topology is
// graph.FromDual's byte for byte, unit weights included, and its slot table
// names every (tree, facet)'s CSR entry — on triangles, on tetrahedra, and on
// a graded mesh with a wide spread of element sizes and vertex degrees (the
// leaf mesh of an adapted forest).
func TestDualFromTopology(t *testing.T) {
	f := forest.FromMesh(meshgen.RectTri(4, 4, -1, -1, 1, 1))
	r := refine.NewRefiner(f)
	for range 4 {
		refine.AdaptOnce(r, cornerEst(geom.Vec3{X: 1, Y: 1}), 0.2, 0, 6)
	}
	graded := f.LeafMesh().Mesh
	if graded.NumElems() < 100 {
		t.Fatalf("the graded mesh has only %d elements", graded.NumElems())
	}
	for _, tc := range []struct {
		name string
		m    *mesh.Mesh
	}{
		{"RectTri", meshgen.RectTri(40, 40, -1, -1, 1, 1)},
		{"BoxTet", meshgen.BoxTet(4, 3, 5, -1, -1, -1, 1, 1, 1)},
		{"graded", graded},
	} {
		topo := newCoarseTopo(tc.m)
		d, full := topo.dual(), graph.FromDual(tc.m)
		if err := checkDual(d, &topo, full); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !slices.Equal(d.VW, full.VW) || !slices.Equal(d.EW, full.EW) {
			t.Errorf("%s: the topology-built weights are not graph.FromDual's unit weights", tc.name)
		}
	}
}

// FuzzWeightRecords feeds writeRecords arbitrary words as the three ranks'
// reports, either as a full write or, with delta set, as the reports of the
// changed trees onto a kept G (the full write of one valid record per tree,
// redone before each input). It must never index outside G (which would
// panic), and whatever it accepts must be what the contract says: records
// only of the sender's own trees, in ascending order, every tree reported
// exactly once by a full write and an unreported one keeping its weights in a
// delta, G's vertex weights as reported, and the kept cut and its part
// between the groups {0, 1} and {2} what partition.EdgeCut and TwoLevelCut
// count on the written G. One G serves every input, and a rejected report
// must leave its slot table intact.
func FuzzWeightRecords(f *testing.F) {
	w := newFuzzWorld()
	stride := 2 + w.m.FacetsPerElem()
	valid := make([][]byte, w.p)
	for r, o := range w.owner {
		valid[o] = append(valid[o], byte(r), byte(1+r), 1, 2, 3)
	}
	f.Add(valid[0], valid[1], valid[2], false, false)
	f.Add(valid[0], valid[2], valid[1], false, false)                                      // not the owners
	f.Add(valid[0][:len(valid[0])-1], valid[1], valid[2], false, false)                    // a short record
	f.Add(valid[0], valid[1][stride:], valid[2], false, false)                             // a tree left out
	f.Add(append(valid[0][:stride:stride], valid[0]...), valid[1], valid[2], false, false) // a tree twice
	f.Add([]byte{18, 1, 1, 1, 1}, []byte{0xff, 1, 1, 1, 1}, []byte{}, false, false)        // roots out of range
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<40), []byte{}, []byte{}, true, false)
	f.Add([]byte{}, []byte{}, []byte{}, false, true)                                                         // nothing changed
	f.Add([]byte{0, 5, 7, 0, 9, 3, 1, 4, 4, 4}, valid[1][stride:], []byte{}, false, true)                    // new weights
	f.Add(valid[1][:stride], []byte{}, []byte{}, false, true)                                                // not the owner's
	f.Add(valid[0][stride:2*stride], []byte{}, append(valid[2][stride:], valid[2][:stride]...), false, true) // not ascending
	full, g := graph.FromDual(w.m), w.topo.dual()
	kept := make([][]int64, w.p)
	for rank := range kept {
		kept[rank] = fuzzWords(valid[rank], false)
	}
	f.Fuzz(func(t *testing.T, a, b, c []byte, wide, delta bool) {
		if delta {
			if err := writeRecords(g, w.owner, 2, kept, true); err != nil {
				t.Fatalf("the kept G's records: %v", err)
			}
		}
		records := [][]int64{fuzzWords(a, wide), fuzzWords(b, wide), fuzzWords(c, wide)}
		if err := writeRecords(g, w.owner, 2, records, !delta); err != nil {
			if !strings.HasPrefix(err.Error(), "pared: ") {
				t.Fatalf("error without the package prefix: %v", err)
			}
			if err := checkDual(g, &w.topo, full); err != nil {
				t.Fatalf("after a rejected report: %v", err)
			}
			return
		}
		if want := partition.EdgeCut(g.Graph, w.owner); g.cut != want {
			t.Fatalf("writeRecords kept cut %d, EdgeCut of the written G is %d", g.cut, want)
		}
		if want, _ := partition.TwoLevelCut(g.Graph, w.owner, 2); g.inter != want {
			t.Fatalf("writeRecords kept inter-group cut %d, TwoLevelCut of the written G is %d", g.inter, want)
		}
		reported := make([]bool, len(w.owner))
		for rank, rec := range records {
			var mine []int64
			for r, o := range w.owner {
				if int(o) == rank {
					mine = append(mine, int64(r))
				}
			}
			if !delta && len(rec) != stride*len(mine) {
				t.Fatalf("accepted %d words from rank %d, which owns %d trees", len(rec), rank, len(mine))
			}
			for i := 0; i < len(rec); i += stride {
				r := rec[i]
				if _, ok := slices.BinarySearch(mine, r); !ok || (i > 0 && rec[i-stride] >= r) || g.VW[r] != rec[i+1] {
					t.Fatalf("accepted record %d of rank %d for tree %d with VW %d, G.VW %d: not its tree, not ascending or not written",
						i/stride, rank, r, rec[i+1], g.VW[r])
				}
				reported[r] = true
			}
		}
		for r, ok := range reported {
			if !ok && g.VW[r] != int64(1+r) {
				t.Fatalf("tree %d, not in the delta, has VW %d, the kept G %d", r, g.VW[r], 1+r)
			}
		}
	})
}

// FuzzUnpackOwnerDelta: a packed delta decodes to the map and cuts it was
// packed from, and arbitrary words decode to an error or to an owner map that
// is total and in range — never to an index panic.
func FuzzUnpackOwnerDelta(f *testing.F) {
	w := newFuzzWorld()
	f.Add([]byte{0, 1, 2, 0, 1, 2}, []byte{0, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0}, true)
	f.Add([]byte{2, 2, 2}, []byte{0, 0, 0, 0, 5, 1}, false)           // moved to rank 1
	f.Add([]byte{}, []byte{0, 0, 0, 0, 5}, false)                     // an odd tail
	f.Add([]byte{}, []byte{0, 0, 0}, false)                           // a short header
	f.Add([]byte{}, []byte{0, 0, 0, 0, 18, 1}, false)                 // an index past the map
	f.Add([]byte{}, []byte{0, 0, 0, 0, 0xff, 1}, false)               // a negative index
	f.Add([]byte{}, []byte{0, 0, 0, 0, 4, 3, 4, 0xff}, false)         // owners outside [0, p)
	f.Add([]byte{}, []byte{0, 0, 0x80, 0, 0, 0, 0, 0x7f, 0, 0}, true) // wide words
	f.Fuzz(func(t *testing.T, moves, payload []byte, wide bool) {
		// Round trip: moves reassigns a prefix of the trees.
		newOwner := slices.Clone(w.owner)
		for i, b := range moves[:min(len(moves), len(newOwner))] {
			newOwner[i] = int32(b) % int32(w.p)
		}
		before, after := int64(len(moves))<<33+7, -int64(len(payload))
		got, gotBefore, gotAfter, err := unpackOwnerDelta(w.owner, packOwnerDelta(before, after, w.owner, newOwner), w.p)
		if err != nil || !slices.Equal(got, newOwner) || gotBefore != before || gotAfter != after {
			t.Fatalf("round trip: %v, cuts %d %d (err %v), packed from %v, cuts %d %d", got, gotBefore, gotAfter, err, newOwner, before, after)
		}
		// Arbitrary words.
		var words []int32
		for _, x := range fuzzWords(payload, false) {
			words = append(words, int32(x))
		}
		if wide {
			words = words[:0]
			for ; len(payload) >= 4; payload = payload[4:] {
				words = append(words, int32(binary.LittleEndian.Uint32(payload)))
			}
		}
		got, _, _, err = unpackOwnerDelta(w.owner, words, w.p)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "pared: ") {
				t.Fatalf("error without the package prefix: %v", err)
			}
			return
		}
		if len(got) != len(w.owner) {
			t.Fatalf("decoded %d owners for %d trees", len(got), len(w.owner))
		}
		for r, o := range got {
			if o < 0 || int(o) >= w.p {
				t.Fatalf("decoded owner %d for tree %d with %d ranks", o, r, w.p)
			}
		}
	})
}

// TestCollectivesPerPhase pins the world-communicator collectives of one
// steady-state forced Rebalance under every registry row and of a dof-plan
// build, the same with and without paredassert. The parent columns are what
// this test measured at the commit before the distributed KL sweep exchanged
// once per pass, with and without paredassert: distrefine and hier then
// all-gathered their proposals once per round, six and one more exchanges on
// this input. Before per-tree weight records, the graph strategies spent one
// more (the all-gather of boundary facets inside P1), two more under
// paredassert (the gather of its scratch rebuild of G), and the plan build
// three all-gathers.
func TestCollectivesPerPhase(t *testing.T) {
	// A coordinator epoch is: the imbalance probe, the P2 gather, the owner
	// broadcast, the migration all-to-all, two move-count reductions and the
	// closing imbalance probe. distrefine and hier add what their collective
	// KL sweeps exchange on this input, one all-gather per pass; sfc never
	// shipped weights of G.
	table := []struct {
		algo                 string
		rebalance            int64
		parent, parentAssert int64
	}{
		{"pnr", 7, 7, 7},
		{"rsb", 7, 7, 7},
		{"mlkl", 7, 7, 7},
		{"sfc", 8, 8, 8},
		{"distrefine", 11, 17, 17},
		{"hier", 8, 9, 9},
	}
	if len(table) != len(AlgorithmNames()) {
		t.Fatalf("the table has %d rows, the registry %d", len(table), len(AlgorithmNames()))
	}
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	est := cornerEst(geom.Vec3{X: 1, Y: 1})
	for _, row := range table {
		cfg, err := ConfigByName(row.algo)
		if err != nil {
			t.Fatal(err)
		}
		var rebalance, plan int64
		err = par.Run(4, func(c *par.Comm) {
			e := BootstrapWith(c, m, cfg)
			e.Adapt(est, 0.8, 0, 7)
			e.Rebalance(true) // first use: lazy caches, the hier Splits
			e.Adapt(est, 0.7, 0, 7)
			s0 := c.CollectiveSeq()
			e.Rebalance(true)
			s1 := c.CollectiveSeq()
			e.buildDofPlan()
			if c.Rank() == 0 {
				rebalance, plan = s1-s0, c.CollectiveSeq()-s1
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if rebalance != row.rebalance {
			t.Errorf("%s: %d world collectives in a forced Rebalance, want %d (parent: %d, %d under paredassert)",
				row.algo, rebalance, row.rebalance, row.parent, row.parentAssert)
		}
		if plan != 0 {
			t.Errorf("%s: buildDofPlan entered %d collectives, want none", row.algo, plan)
		}
	}
}

// TestDecodeSplits: a peer's split report decodes to its (A, B) pairs, and a
// report that is not whole pairs, or holds a pair that is not canonical, is an
// error naming the sender instead of an index panic or a split parked for
// good.
func TestDecodeSplits(t *testing.T) {
	mid := int64(-1 << 62) // midpoint IDs have bit 63 set: negative on the wire
	cases := []struct {
		name  string
		words []int64
		want  []refine.EdgeSplit
		err   string
	}{
		{"empty", nil, nil, ""},
		{"pairs", []int64{1, 2, 3, mid}, []refine.EdgeSplit{{A: 1, B: 2}, {A: 3, B: forest.VertexID(mid)}}, ""},
		{"odd length", []int64{1, 2, 3}, nil, "split report from rank 5 has 3 words"},
		{"A == B", []int64{1, 2, 7, 7}, nil, "split report from rank 5: pair 1 is (0x7, 0x7)"},
		{"A > B", []int64{mid, 3}, nil, "split report from rank 5: pair 0 is"},
	}
	for _, tc := range cases {
		dst := []refine.EdgeSplit{{A: 10, B: 20}}
		got, err := decodeSplits(dst, 5, tc.words)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil || !slices.Equal(got, append(dst, tc.want...)) {
			t.Errorf("%s: decoded %v (err %v), want %v after the existing entry", tc.name, got, err, tc.want)
		}
	}
}

// TestCheckArrival: a migrated tree is spliced in only if its root is a tree
// of the coarse mesh, its sender owned it, the new owner map gives it to the
// receiver, the receiver does not hold it yet and its simplices have the
// receiver's dimension; anything else is an error naming the sender, before
// the root indexes the forest.
func TestCheckArrival(t *testing.T) {
	f := forest.FromMesh(meshgen.RectTri(2, 2, 0, 0, 1, 1)) // trees 0..7
	for r := int32(2); r < 8; r++ {
		f.RemoveTree(r) // rank 1 holds trees 0 and 1
	}
	owner := []int32{1, 1, 0, 0, 2, 2, 3, 3}
	newOwner := []int32{1, 1, 1, 0, 1, 2, 3, 3}
	tree := func(root, v3 int32) *forest.TreePayload {
		return &forest.TreePayload{Root: root, Nodes: []forest.PayloadNode{{Verts: [4]int32{0, 1, 2, v3}, Kids: [2]int32{-1, -1}, MidV: -1}}}
	}
	cases := []struct {
		name string
		from int
		root int32
		err  string
	}{
		{"moved here", 0, 2, ""},
		{"moved here from another rank", 2, 4, ""},
		{"negative root", 0, -1, "rank 0 sent tree -1, outside [0, 8)"},
		{"root past the coarse mesh", 0, 8, "rank 0 sent tree 8, outside [0, 8)"},
		{"sender did not own it", 3, 2, "rank 3 sent tree 2, which rank 0 owns"},
		{"new owner is another rank", 0, 3, "rank 0 sent tree 3 to rank 1, which the new owner map gives rank 0"},
		{"already held", 1, 0, "rank 1 sent tree 0, which rank 1 already holds"},
	}
	for _, tc := range cases {
		err := checkArrival(f, owner, newOwner, 1, tc.from, tree(tc.root, -1))
		if tc.err == "" {
			if err != nil {
				t.Errorf("%s: %v, want no error", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.err)
		}
	}
	want := "rank 0 sent tree 2 of dimension 3 into a forest of dimension 2"
	if err := checkArrival(f, owner, newOwner, 1, 0, tree(2, 3)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a tetrahedron into a 2D forest: error %v, want one containing %q", err, want)
	}
}

// TestArrivalWithAliasedVertexPanicsNamingSender: a tree whose vertex IDs the
// receiving forest holds at other coordinates is rejected before any of it is
// spliced, by migrate and by GatherForest alike, with a panic naming the rank
// that sent it. Here rank 0 (migrate) or rank 1 (GatherForest) moves every
// vertex it holds before sending, so the trees disagree with the receiver on
// the vertices they share.
func TestArrivalWithAliasedVertexPanicsNamingSender(t *testing.T) {
	m := meshgen.RectTri(4, 4, -1, -1, 1, 1)
	shift := func(f *forest.Forest) {
		for v := range f.Coords {
			f.Coords[v].X += 5
		}
	}
	err := par.Run(2, func(c *par.Comm) {
		e := Bootstrap(c, m)
		if c.Rank() == 0 {
			shift(e.F)
		}
		all1 := make([]int32, len(e.Owner))
		for i := range all1 {
			all1[i] = 1
		}
		e.migrate(all1)
	})
	if want := "pared: rank 1 migration payload from 0: forest: tree"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("migrate: par.Run returned %v, want a panic containing %q", err, want)
	}
	err = par.Run(2, func(c *par.Comm) {
		e := Bootstrap(c, m)
		if c.Rank() == 1 {
			shift(e.F)
		}
		e.GatherForest(0)
	})
	if want := "pared: rank 0 gathering the forest, payload from 1: forest: tree"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("GatherForest: par.Run returned %v, want a panic containing %q", err, want)
	}
}

// BenchmarkWriteRecords is a holder of G writing the largest delta decision
// onto its kept G: the 3 200 trees of a 40×40 coarse mesh dealt to 8 ranks in
// blocks, every tree reported, with 4 leaves and 2 leaf facets on each root
// facet. It allocates nothing, and the allocation guard holds it there.
func BenchmarkWriteRecords(b *testing.B) {
	const p = 8
	m := meshgen.RectTri(40, 40, -1, -1, 1, 1)
	topo := newCoarseTopo(m)
	g := topo.dual()
	owner := make([]int32, m.NumElems())
	records := make([][]int64, p)
	for r := range owner {
		owner[r] = int32(r * p / len(owner))
		records[owner[r]] = append(records[owner[r]], int64(r), 4, 2, 2, 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeRecords(g, owner, 1, records, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopoDual builds G's CSR and slot table the way the engine does,
// from a fresh coarse topology (every acrossOf row derived on the way), on
// the 120×120 mesh from which BenchmarkFromDual in the graph package builds
// the same CSR through the facet hash.
func BenchmarkTopoDual(b *testing.B) {
	m := meshgen.RectTri(120, 120, -1, -1, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo := newCoarseTopo(m)
		topo.dual()
	}
}

// TestRecordsSentAreTheChangedTrees pins the record counters: an engine's
// first decision sends a record of every tree a rank holds, and every later
// one only of the trees bisected or un-bisected since the last, here the
// trees whose leaf count a refine-only or coarsen-only Adapt changed. Every
// holder of G writes the records all ranks sent: rank 0 under the coordinator
// pipeline, every rank under replicated.
func TestRecordsSentAreTheChangedTrees(t *testing.T) {
	m := meshgen.RectTri(8, 8, -1, -1, 1, 1)
	for _, name := range []string{"pnr", "distrefine"} {
		cfg, err := ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var partial bool
		err = par.Run(4, func(c *par.Comm) {
			e := BootstrapWith(c, m, cfg)
			holds := name == "distrefine" || c.Rank() == 0
			for epoch := range 6 {
				before := make([]int, e.Coarse.NumElems())
				for _, r := range e.F.Roots() {
					before[r] = e.F.LeafCount(r)
				}
				peak := peakEst(geom.Vec3{X: float64(epoch%3) - 1, Y: 1 - float64(epoch%2)})
				if epoch%2 == 0 {
					e.Adapt(peak, 1.6, 0, 7)
				} else {
					e.Adapt(peak, math.Inf(1), 0.8, 7)
				}
				want := int64(e.F.NumRoots())
				if epoch > 0 {
					want = 0
					for _, r := range e.F.Roots() {
						if e.F.LeafCount(r) != before[r] {
							want++
						}
					}
				}
				sent, written := e.RecordsSent, e.RecordsWritten
				e.Rebalance(true)
				if got := e.RecordsSent - sent; got != want {
					panic(fmt.Sprintf("%s, rank %d, epoch %d: sent %d records, %d trees changed", name, c.Rank(), epoch, got, want))
				}
				all := c.AllReduceSumInt64(want)
				if got := e.RecordsWritten - written; holds && got != all || !holds && got != 0 {
					panic(fmt.Sprintf("%s, rank %d, epoch %d: wrote %d records, the ranks sent %d", name, c.Rank(), epoch, got, all))
				}
				if c.Rank() == 0 && epoch > 0 && all > 0 && all < int64(e.Coarse.NumElems()) {
					partial = true
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !partial {
			t.Errorf("%s: no decision sent fewer records than there are trees; the chain proved nothing", name)
		}
	}
}
