package forest

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"pared/internal/meshgen"
)

// malformedPayloads returns a valid one-tree batch, the same tree with a
// field, and those batches made wrong in each way a wire buffer can be wrong.
func malformedPayloads() (valid, withField []byte, cases []malformedPayload) {
	f := FromMesh(meshgen.RectTri(1, 1, 0, 0, 1, 1))
	leaf := f.Root(0)
	a, b := f.LongestEdge(leaf)
	f.Bisect(leaf, a, b, f.InternVertex(MidID(f.VIDs[a], f.VIDs[b]), f.Coords[a].Mid(f.Coords[b])))
	p := f.ExtractTree(0) // three nodes: the root and its two kids
	valid = EncodePayloads([]*TreePayload{p})
	// Offset of int32 word k of node i in valid.
	nodeWord := func(i, k int) int {
		return 4 + 16 + len(p.VIDs)*32 + (i*payloadNodeWords+k)*4
	}
	patchedIn := func(in []byte, off int, v uint32) []byte {
		buf := append([]byte(nil), in...)
		binary.LittleEndian.PutUint32(buf[off:], v)
		return buf
	}
	patched := func(off int, v int32) []byte { return patchedIn(valid, off, uint32(v)) }
	pf := *p
	pf.Field = []float64{1, -2, 0.5, -0.75}
	withField = EncodePayloads([]*TreePayload{&pf})
	nv := uint32(len(p.VIDs))
	return valid, withField, []malformedPayload{
		{"truncated batch count", valid[:2]},
		{"truncated header", valid[:4+10]},
		{"truncated body", valid[:len(valid)-5]},
		{"oversized count, 2 GiB of pointers", []byte{0xff, 0xff, 0xff, 0x0f, 1, 2, 3}},
		{"oversized count, 32 GiB of pointers", []byte{0xff, 0xff, 0xff, 0xff}},
		{"oversized vertex count", patched(4+8, 1<<30)},
		{"no nodes", patched(4+12, 0)[:nodeWord(0, 0)]},
		{"vertex index past the table", patched(nodeWord(0, 0), int32(len(p.VIDs)))},
		{"vertex index below -1", patched(nodeWord(2, 1), -2)},
		{"refinement edge past the table", patched(nodeWord(0, 6), int32(len(p.VIDs))+3)},
		{"midpoint index past the table", patched(nodeWord(0, 8), 1<<20)},
		{"kid pointing at its parent", patched(nodeWord(0, 4), 0)},
		{"backward kid on a later node", patched(nodeWord(2, 4), 1)},
		{"kid past the node table", patched(nodeWord(0, 5), 3)},
		{"one kid only", patched(nodeWord(0, 5), -1)},
		{"leaf vertex -1", patched(nodeWord(2, 0), -1)},
		{"root vertex -1", patched(nodeWord(0, 1), -1)},
		{"fourth vertex on a triangle", patched(nodeWord(1, 3), 0)},
		{"interior refinement edge -1", patched(nodeWord(0, 6), -1)},
		{"interior midpoint -1", patched(nodeWord(0, 8), -1)},
		{"trailing bytes", append(append([]byte(nil), valid...), 0)},
		{"count below the payloads present", append(append([]byte(nil), valid...), valid[4:]...)},
		{"field flag on a bare body", patchedIn(valid, 4+8, nv|fieldFlag)},
		{"field length mismatch", patchedIn(withField, 4+16+len(p.VIDs)*32, nv-1)},
	}
}

type malformedPayload struct {
	name string
	buf  []byte
}

// decodeBounded runs DecodePayloads on buf and fails the test if it allocated
// beyond the order of the input's size.
func decodeBounded(t *testing.T, name string, buf []byte) ([]*TreePayload, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ps, err := DecodePayloads(buf)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(buf)+1<<16); got > limit {
		t.Errorf("%s: allocated %d bytes decoding %d (limit %d)", name, got, len(buf), limit)
	}
	return ps, err
}

// TestDecodePayloadsRejectsMalformed feeds DecodePayloads buffers that are
// wrong in each way a wire buffer can be wrong. Every one must come back as
// an error — not a panic here or later in InsertTree — without allocating
// beyond the order of the input's size.
func TestDecodePayloadsRejectsMalformed(t *testing.T) {
	valid, withField, cases := malformedPayloads()
	for _, buf := range [][]byte{valid, withField} {
		if ps, err := DecodePayloads(buf); err != nil || len(ps) != 1 {
			t.Fatalf("valid buffer: %d payloads, err %v", len(ps), err)
		}
	}
	for _, tc := range cases {
		if ps, err := decodeBounded(t, tc.name, tc.buf); err == nil {
			t.Errorf("%s: decoded %d payloads, want an error", tc.name, len(ps))
		}
	}
}

// reusePayloads returns a longer tree with a field, as a one-tree batch, and
// the two-tree batches that catch a reused payload's stale state: a tree with
// a field followed by a bare one (a stale Field), and the longer tree followed
// by a shorter one (stale lengths).
func reusePayloads() (long []byte, fieldThenBare, longThenShort []byte) {
	f := FromMesh(meshgen.RectTri(1, 1, 0, 0, 1, 1))
	for round := 0; round < 3; round++ {
		for _, id := range f.Leaves() {
			bisectLeaf(f, id)
		}
	}
	withLinearField(f)
	lp := f.ExtractTree(0)
	short := f.ExtractTree(1)
	short.Nodes = short.Nodes[:1] // the root alone: a one-node tree
	short.Nodes[0].Kids, short.Nodes[0].RefEdge, short.Nodes[0].MidV = [2]int32{-1, -1}, [2]int32{}, -1
	bare := *short
	bare.Field = nil
	return EncodePayloads([]*TreePayload{lp}), EncodePayloads([]*TreePayload{short, &bare}),
		EncodePayloads([]*TreePayload{lp, &bare})
}

// FuzzDecodePayloads: arbitrary bytes decode to an error or to payloads that
// encode back to the same bytes — never to a panic — with allocation bounded
// by the input's length. DecodeEach, decoding into one scratch payload that a
// longer tree with a field filled first, must hand out payloads that encode
// as DecodePayloads' do, one for one, and fail with the same error. Seeded
// with the 24 buffers of TestDecodePayloadsRejectsMalformed, the two valid
// ones they were cut from (a bare tree and the same tree with a field), and
// reusePayloads' batches.
func FuzzDecodePayloads(f *testing.F) {
	valid, withField, cases := malformedPayloads()
	f.Add(valid)
	f.Add(withField)
	for _, tc := range cases {
		f.Add(tc.buf)
	}
	long, fieldThenBare, longThenShort := reusePayloads()
	f.Add(long)
	f.Add(fieldThenBare)
	f.Add(longThenShort)
	f.Fuzz(func(t *testing.T, buf []byte) {
		ps, err := decodeBounded(t, "fuzz input", buf)
		filled, ferr := DecodePayloads(long)
		if ferr != nil {
			t.Fatal(ferr)
		}
		i := 0
		eachErr := DecodeEach(buf, filled[0], func(p *TreePayload) error {
			if err == nil && !bytes.Equal(EncodePayloads([]*TreePayload{p}), EncodePayloads(ps[i:i+1])) {
				t.Fatalf("DecodeEach's payload %d encodes unlike DecodePayloads'", i)
			}
			i++
			return nil
		})
		if (err == nil) != (eachErr == nil) || (err != nil && err.Error() != eachErr.Error()) {
			t.Fatalf("DecodePayloads fails with %v, DecodeEach with %v", err, eachErr)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "forest: ") {
				t.Fatalf("error without the package prefix: %v", err)
			}
			return
		}
		if i != len(ps) {
			t.Fatalf("DecodeEach handed out %d payloads, DecodePayloads %d", i, len(ps))
		}
		if len(ps) == 0 {
			return // nil, or a count of zero: EncodePayloads has no such form
		}
		if again := EncodePayloads(ps); !bytes.Equal(again, buf) {
			t.Fatalf("decoded %d payloads that encode to %d bytes, not the %d decoded", len(ps), len(again), len(buf))
		}
	})
}
