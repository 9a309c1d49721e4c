package refine

import (
	"fmt"
	"slices"

	"pared/internal/forest"
	"pared/internal/index"
)

// edgeRec is the refiner's record of one edge: an edge of a current leaf, a
// split edge, or both.
type edgeRec struct {
	// a < b are the endpoints as local vertex indices. a is -1 while the
	// record is on the free list.
	a, b int32
	// mid is the local index of the split midpoint, or -1 if the edge is not
	// split.
	mid int32
	// leaves are the current leaves containing the edge, in the order they
	// were entered: appended on add, swapped with the last on remove. The
	// closure enqueues them in this order, so it fixes every later NodeID.
	leaves []forest.NodeID
}

// key returns the record's index key. For a live record it equals
// edgeKey(a, b); CheckInvariants holds the table to that.
func (e *edgeRec) key() uint64 { return uint64(e.a)<<32 | uint64(uint32(e.b)) }

// edgeKey packs the local endpoints of edge {a, b} into the table's key.
func edgeKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// edgePageSize is the number of records per page. Pages are never copied or
// moved, so a *edgeRec stays valid while the table grows.
const edgePageSize = 1 << 10

// edgeTable holds one record per edge, found by one lookup of the packed
// local endpoint pair in an open-addressed index (see package index). A
// record lives while it has a leaf or a split mark; freed, it keeps its
// leaves' backing array for the next edge that takes it.
//
// Keys are local vertex indices, which the forest never renumbers. At
// quiescence no record names a free vertex slot, so a slot the forest hands
// out again meets no stale record (see Refiner.RemoveTree and
// CheckInvariants).
type edgeTable struct {
	index index.Map
	pages [][]edgeRec
	n     int32   // records handed out so far, live or free
	free  []int32 // free records, taken last-in first-out
}

func (t *edgeTable) at(i int32) *edgeRec { return &t.pages[i/edgePageSize][i%edgePageSize] }

// find returns the record of edge {a, b}, or nil.
func (t *edgeTable) find(a, b int32) *edgeRec {
	if i, ok := t.index.Find(edgeKey(a, b)); ok {
		return t.at(i)
	}
	return nil
}

// get returns the record of edge {a, b}, entering an unsplit one without
// leaves if there is none. It probes the index once: the record a new edge
// would take is known before the probe.
func (t *edgeTable) get(a, b int32) *edgeRec {
	next, nfree := t.n, len(t.free)
	if nfree > 0 {
		next = t.free[nfree-1]
	}
	k := edgeKey(a, b)
	if i, ok := t.index.FindOrPut(k, next); ok {
		return t.at(i)
	}
	if nfree > 0 {
		t.free = t.free[:nfree-1]
	} else {
		if int(t.n) == len(t.pages)*edgePageSize {
			t.pages = append(t.pages, make([]edgeRec, edgePageSize))
		}
		t.n++
	}
	e := t.at(next)
	e.a, e.b, e.mid = int32(k>>32), int32(uint32(k)), -1
	return e
}

// must returns the record of edge {a, b} of leaf id. A leaf's edges always
// have records, so a missing one is a corrupt table: it panics.
func (t *edgeTable) must(a, b int32, id forest.NodeID) *edgeRec {
	e := t.find(a, b)
	if e == nil {
		panic(fmt.Sprintf("refine: leaf %d edge {%d, %d} has no record", id, a, b))
	}
	return e
}

// release puts record i on the free list. It must already be out of the
// index.
func (t *edgeTable) release(i int32) {
	e := t.at(i)
	e.a, e.mid = -1, -1
	e.leaves = e.leaves[:0]
	t.free = append(t.free, i)
}

// drop takes leaf id out of e's leaves, swapping the last one into its place.
func (e *edgeRec) drop(id forest.NodeID) {
	s := e.leaves
	for j, x := range s {
		if x == id {
			s[j] = s[len(s)-1]
			e.leaves = s[:len(s)-1]
			return
		}
	}
}

// freeIfBare frees record e if it has neither a leaf nor a split mark.
func (t *edgeTable) freeIfBare(e *edgeRec) {
	if len(e.leaves) == 0 && e.mid < 0 {
		i, _ := t.index.Delete(e.key())
		t.release(i)
	}
}

// removeLeaf takes leaf id out of the record of edge {a, b}, freeing the
// record if that leaves it with neither a leaf nor a split mark.
func (t *edgeTable) removeLeaf(a, b int32, id forest.NodeID) {
	e := t.must(a, b, id)
	e.drop(id)
	t.freeIfBare(e)
}

// dropMarks clears every split mark and frees the records left without a
// leaf, in place.
func (t *edgeTable) dropMarks() {
	for i := int32(0); i < t.n; i++ {
		e := t.at(i)
		if e.a < 0 {
			continue
		}
		e.mid = -1
		if len(e.leaves) == 0 {
			t.index.Delete(e.key())
			t.release(i)
		}
	}
}

// check verifies the table's own structure: every key reaches a live record
// whose endpoints it packs, every live record has a leaf or a split mark, and
// the index holds every live record. The fault reported is the one on the
// smallest key, or else on the first record.
func (t *edgeTable) check() error {
	keys := t.index.AppendKeys(make([]uint64, 0, t.index.Len()))
	slices.Sort(keys)
	for _, k := range keys {
		i, _ := t.index.Find(k)
		if i < 0 || i >= t.n || t.at(i).a < 0 {
			return fmt.Errorf("refine: edge key {%d, %d} reaches record %d, which is not live", k>>32, uint32(k), i)
		}
		if e := t.at(i); e.key() != k || e.a >= e.b {
			return fmt.Errorf("refine: edge key {%d, %d} reaches record %d of edge {%d, %d}", k>>32, uint32(k), i, e.a, e.b)
		}
	}
	live := 0
	for i := int32(0); i < t.n; i++ {
		e := t.at(i)
		if e.a < 0 {
			continue
		}
		live++
		if len(e.leaves) == 0 && e.mid < 0 {
			return fmt.Errorf("refine: record %d of edge {%d, %d} has neither a leaf nor a split mark", i, e.a, e.b)
		}
	}
	if live != t.index.Len() {
		return fmt.Errorf("refine: %d live edge records, %d indexed", live, t.index.Len())
	}
	return nil
}
