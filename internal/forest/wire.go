package forest

import (
	"encoding/binary"
	"fmt"
	"math"

	"pared/internal/geom"
)

// Wire codec for tree migration. The engine's migrate phase moves trees as one
// flat little-endian buffer per destination (par.Comm.AlltoallBytes), what a
// real MPI backend would put on the wire, and that lane is all a migrated tree
// allocates: the sender sizes it once (TreeWireBound) and appends each tree
// (AppendTree), and the receiver decodes tree after tree into one reused
// payload (DecodeEach). EncodePayloads and DecodePayloads run on the same code.
//
// Layout per payload (all little-endian):
//
//	int32  root, level0
//	uint32 nVIDs | F<<31      F = 1: the payload carries a field
//	int32  nNodes
//	uint64 VIDs[nVIDs]
//	f64    Coords[nVIDs]{X,Y,Z}
//	uint32 nField             F = 1 only; must equal nVIDs
//	f64    Field[nField]      F = 1 only
//	int32  Nodes[nNodes]{Verts[4], Kids[2], RefEdge[2], MidV}
//
// A batch is a uint32 payload count followed by the payloads. A bare tree
// (Field nil) has F = 0 and no field words, so workloads that never set a
// field send no field bytes (TestBarePayloadBytesUnchanged).

// payloadNodeWords is the number of int32 words in one wire PayloadNode.
const payloadNodeWords = 9

// fieldFlag is the bit of the vertex-count word that marks a field.
const fieldFlag = 1 << 31

// wireSize returns the encoded size of p in bytes.
func (p *TreePayload) wireSize() int {
	size := 4*4 + len(p.VIDs)*8 + len(p.Coords)*24 + len(p.Nodes)*payloadNodeWords*4
	if p.Field != nil {
		size += 4 + len(p.Field)*8
	}
	return size
}

// appendWire appends the wire encoding of p to buf.
func (p *TreePayload) appendWire(buf []byte) []byte {
	nv := uint32(len(p.VIDs))
	if p.Field != nil {
		nv |= fieldFlag
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Root))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Level0))
	buf = binary.LittleEndian.AppendUint32(buf, nv)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Nodes)))
	for _, v := range p.VIDs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	for _, c := range p.Coords {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Y))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Z))
	}
	if p.Field != nil {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Field)))
		for _, x := range p.Field {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	}
	for _, n := range p.Nodes {
		for _, w := range [payloadNodeWords]int32{
			n.Verts[0], n.Verts[1], n.Verts[2], n.Verts[3],
			n.Kids[0], n.Kids[1], n.RefEdge[0], n.RefEdge[1], n.MidV,
		} {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
		}
	}
	return buf
}

// TreeWireBound bounds the wire size of tree root, as AppendTree encodes it,
// from its leaf count L alone: its 2L−1 nodes name the root simplex's
// vertices and at most one midpoint per bisection, L−1 in all.
func (f *Forest) TreeWireBound(root int32) int {
	l, size, vertBytes := f.LeafCount(root), 16, 32
	if f.Field != nil {
		size, vertBytes = 20, 40
	}
	return size + (int(f.Dim)+l)*vertBytes + f.TreeSize(root)*payloadNodeWords*4
}

// resize returns s with length n, reusing its room if it has enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// decodeWire decodes one payload from buf into p, reusing the room of p's
// slices (Field is nil for a bare payload), and returns the tail. On an error
// p holds a partial payload.
func (p *TreePayload) decodeWire(buf []byte) ([]byte, error) {
	if len(buf) < 16 {
		return nil, fmt.Errorf("forest: truncated payload header (%d bytes)", len(buf))
	}
	p.Root = int32(binary.LittleEndian.Uint32(buf[0:]))
	p.Level0 = int32(binary.LittleEndian.Uint32(buf[4:]))
	nvw := binary.LittleEndian.Uint32(buf[8:])
	nv, hasField := int(nvw&^fieldFlag), nvw&fieldFlag != 0
	nn := int(binary.LittleEndian.Uint32(buf[12:]))
	buf = buf[16:]
	need := nv*8 + nv*24 + nn*payloadNodeWords*4
	if hasField {
		need += 4 + nv*8
	}
	if len(buf) < need {
		return nil, fmt.Errorf("forest: truncated payload body (%d < %d bytes)", len(buf), need)
	}
	if nn == 0 {
		return nil, fmt.Errorf("forest: payload of tree %d has no nodes", p.Root)
	}
	p.VIDs = resize(p.VIDs, nv)
	for i := range p.VIDs {
		p.VIDs[i] = VertexID(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	buf = buf[nv*8:]
	p.Coords = resize(p.Coords, nv)
	for i := range p.Coords {
		p.Coords[i] = geom.Vec3{
			X: math.Float64frombits(binary.LittleEndian.Uint64(buf[i*24:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(buf[i*24+8:])),
			Z: math.Float64frombits(binary.LittleEndian.Uint64(buf[i*24+16:])),
		}
	}
	buf = buf[nv*24:]
	if !hasField {
		p.Field = nil
	} else {
		if nf := int(binary.LittleEndian.Uint32(buf)); nf != nv {
			return nil, fmt.Errorf("forest: payload of tree %d has %d field values for %d vertices", p.Root, nf, nv)
		}
		p.Field = resize(p.Field, nv)
		for i := range p.Field {
			p.Field[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[4+i*8:]))
		}
		buf = buf[4+nv*8:]
	}
	p.Nodes = resize(p.Nodes, nn)
	sv := 0 // the simplex's vertex count, read off the root (TreePayload.Dim)
	for i := range p.Nodes {
		b := buf[i*payloadNodeWords*4:]
		var w [payloadNodeWords]int32
		for k := range w {
			w[k] = int32(binary.LittleEndian.Uint32(b[k*4:]))
		}
		p.Nodes[i] = PayloadNode{
			Verts:   [4]int32{w[0], w[1], w[2], w[3]},
			Kids:    [2]int32{w[4], w[5]},
			RefEdge: [2]int32{w[6], w[7]},
			MidV:    w[8],
		}
		if i == 0 {
			sv = int(p.Dim()) + 1
		}
		if err := p.Nodes[i].check(p.Root, i, sv, nv, nn); err != nil {
			return nil, err
		}
	}
	return buf[nn*payloadNodeWords*4:], nil
}

// EncodePayloads encodes a batch of payloads into one wire buffer. A nil or
// empty batch encodes to nil, so empty migration lanes send nothing.
func EncodePayloads(ps []*TreePayload) []byte {
	if len(ps) == 0 {
		return nil
	}
	size := 4
	for _, p := range ps {
		size += p.wireSize()
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ps)))
	for _, p := range ps {
		buf = p.appendWire(buf)
	}
	return buf
}

// DecodeEach decodes a batch produced by EncodePayloads one payload at a time
// into scratch, reusing its room, and calls fn with it, up to the first error,
// the batch's or fn's. fn sees only payloads that pass all of decodeWire's
// checks, but a fault later in the batch is found after it has seen the ones
// before, and must not keep scratch's slices. A payload's dimension is read off
// its root; a receiver checks it against its own forest's (TreePayload.Dim).
func DecodeEach(buf []byte, scratch *TreePayload, fn func(*TreePayload) error) error {
	if len(buf) == 0 {
		return nil
	}
	if len(buf) < 4 {
		return fmt.Errorf("forest: truncated payload batch (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	// A payload header is 16 bytes, so a count the input cannot hold is
	// rejected before any payload is decoded.
	if n > len(buf)/16 {
		return fmt.Errorf("forest: payload batch claims %d payloads in %d bytes", n, len(buf))
	}
	for i := 0; i < n; i++ {
		tail, err := scratch.decodeWire(buf)
		if err != nil {
			return err
		}
		if err := fn(scratch); err != nil {
			return err
		}
		buf = tail
	}
	if len(buf) != 0 {
		return fmt.Errorf("forest: %d trailing bytes after payload batch", len(buf))
	}
	return nil
}

// DecodePayloads decodes a batch produced by EncodePayloads (nil for nil) with
// DecodeEach, handing each payload's slices over to a payload of its own and
// leaving the scratch empty for the next.
func DecodePayloads(buf []byte) (ps []*TreePayload, err error) {
	err = DecodeEach(buf, new(TreePayload), func(p *TreePayload) error {
		q := *p
		ps, *p = append(ps, &q), TreePayload{}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ps, nil
}
