package forest

import (
	"encoding/binary"
	"fmt"
	"math"

	"pared/internal/geom"
)

// Wire codec for tree migration. The engine's migrate phase moves batches of
// TreePayload between ranks; encoding them into one flat little-endian buffer
// per destination lets the transport use par.Comm.AlltoallBytes — a single
// unboxed allocation per destination instead of a pointer forest — and
// matches what a real MPI backend would put on the wire.
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

// decodeWire decodes one payload from buf, returning it and the tail.
func decodeWire(buf []byte) (*TreePayload, []byte, error) {
	if len(buf) < 16 {
		return nil, nil, fmt.Errorf("forest: truncated payload header (%d bytes)", len(buf))
	}
	p := &TreePayload{
		Root:   int32(binary.LittleEndian.Uint32(buf[0:])),
		Level0: int32(binary.LittleEndian.Uint32(buf[4:])),
	}
	nvw := binary.LittleEndian.Uint32(buf[8:])
	nv, hasField := int(nvw&^fieldFlag), nvw&fieldFlag != 0
	nn := int(binary.LittleEndian.Uint32(buf[12:]))
	buf = buf[16:]
	need := nv*8 + nv*24 + nn*payloadNodeWords*4
	if hasField {
		need += 4 + nv*8
	}
	if len(buf) < need {
		return nil, nil, fmt.Errorf("forest: truncated payload body (%d < %d bytes)", len(buf), need)
	}
	if nn == 0 {
		return nil, nil, fmt.Errorf("forest: payload of tree %d has no nodes", p.Root)
	}
	p.VIDs = make([]VertexID, nv)
	for i := range p.VIDs {
		p.VIDs[i] = VertexID(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	buf = buf[nv*8:]
	p.Coords = make([]geom.Vec3, nv)
	for i := range p.Coords {
		p.Coords[i] = geom.Vec3{
			X: math.Float64frombits(binary.LittleEndian.Uint64(buf[i*24:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(buf[i*24+8:])),
			Z: math.Float64frombits(binary.LittleEndian.Uint64(buf[i*24+16:])),
		}
	}
	buf = buf[nv*24:]
	if hasField {
		if nf := int(binary.LittleEndian.Uint32(buf)); nf != nv {
			return nil, nil, fmt.Errorf("forest: payload of tree %d has %d field values for %d vertices", p.Root, nf, nv)
		}
		p.Field = make([]float64, nv)
		for i := range p.Field {
			p.Field[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[4+i*8:]))
		}
		buf = buf[4+nv*8:]
	}
	p.Nodes = make([]PayloadNode, nn)
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
			return nil, nil, err
		}
	}
	return p, buf[nn*payloadNodeWords*4:], nil
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

// DecodePayloads decodes a batch produced by EncodePayloads (nil for nil).
// Each payload's dimension is read off its root and holds for all its nodes;
// a receiver checks it against its own forest's (TreePayload.Dim).
func DecodePayloads(buf []byte) ([]*TreePayload, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	if len(buf) < 4 {
		return nil, fmt.Errorf("forest: truncated payload batch (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	// A payload header is 16 bytes, so the count is checked against the input
	// before it sizes an allocation.
	if n > len(buf)/16 {
		return nil, fmt.Errorf("forest: payload batch claims %d payloads in %d bytes", n, len(buf))
	}
	ps := make([]*TreePayload, 0, n)
	for i := 0; i < n; i++ {
		p, tail, err := decodeWire(buf)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
		buf = tail
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("forest: %d trailing bytes after payload batch", len(buf))
	}
	return ps, nil
}
