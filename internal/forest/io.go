package forest

import (
	"bytes"
	"fmt"
	"io"

	"pared/internal/mesh"
)

// rootsPerByte bounds the roots a forest file may name: each is below
// rootsPerByte times the length of the file's batch in bytes. A root sizes
// the dense per-root index (8 bytes a root), so a file's index costs at most
// 16 bytes per batch byte, the order of what decoding the batch allocates. A
// bare triangle tree is 148 bytes, so a forest holding a tree in each 296
// consecutive root ids fits.
const rootsPerByte = 2

// Write serializes the forest as a header line naming the dimension and one
// wire batch (EncodePayloads) of every tree in ascending root order:
//
//	pared-forest <dim>\n
//	EncodePayloads(ExtractTree(r) for each held root r)
//
// A file and a migration share one codec, so the file carries the field and
// a reloaded forest's next solve starts warm. A forest too sparse for
// rootsPerByte is an error, not a file Read would reject.
func (f *Forest) Write(w io.Writer) error {
	roots := f.Roots()
	ps := make([]*TreePayload, len(roots))
	for i, r := range roots {
		ps[i] = f.ExtractTree(r)
	}
	body := EncodePayloads(ps)
	if n := len(roots); n > 0 && int(roots[n-1]) >= rootsPerByte*len(body) {
		return fmt.Errorf("forest: root %d too sparse for a %d-byte file", roots[n-1], len(body))
	}
	if _, err := fmt.Fprintf(w, "pared-forest %d\n", f.Dim); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// Read parses the format written by Write into a fresh forest. Every node is
// held to DecodePayloads' checks; on top, every tree must have the header's
// dimension, the roots must rise strictly from 0 and stay below the
// rootsPerByte bound, and InsertTree must accept every tree's vertex IDs.
// Bad input is an error, never a panic.
func Read(r io.Reader) (*Forest, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	head, body, _ := bytes.Cut(data, []byte("\n"))
	var f *Forest
	switch string(head) {
	case "pared-forest 2":
		f = New(mesh.D2)
	case "pared-forest 3":
		f = New(mesh.D3)
	default:
		return nil, fmt.Errorf("forest: bad header %.40q", head)
	}
	ps, err := DecodePayloads(body)
	if err != nil {
		return nil, err
	}
	prev := int32(-1)
	for _, p := range ps {
		switch {
		case p.Dim() != f.Dim:
			return nil, fmt.Errorf("forest: tree %d is %dD in a %dD file", p.Root, p.Dim(), f.Dim)
		case p.Root <= prev:
			return nil, fmt.Errorf("forest: root %d after root %d: roots must rise from 0", p.Root, prev)
		case int(p.Root) >= rootsPerByte*len(body):
			return nil, fmt.Errorf("forest: root %d in a %d-byte file", p.Root, len(body))
		}
		prev = p.Root
		if err := f.InsertTree(p); err != nil {
			return nil, err
		}
	}
	return f, nil
}
