package mesh

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestMeshIORoundTrip(t *testing.T) {
	for _, m := range []*Mesh{twoTri(), twoTet()} {
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dim != m.Dim || got.NumVerts() != m.NumVerts() || got.NumElems() != m.NumElems() {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
		}
		for i := range m.Verts {
			if got.Verts[i] != m.Verts[i] {
				t.Fatalf("vertex %d differs", i)
			}
		}
		for i := range m.Elems {
			if got.Elems[i] != m.Elems[i] {
				t.Fatalf("element %d differs", i)
			}
		}
	}
}

func TestMeshIORejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(strings.NewReader("not a mesh")); err == nil {
		t.Error("garbage header accepted")
	}
	if _, err := ReadFrom(strings.NewReader("pared-mesh 5 1 1\n")); err == nil {
		t.Error("bad dimension accepted")
	}
	if _, err := ReadFrom(strings.NewReader("pared-mesh 2 3 1\n0 0 0\n1 0 0\n0 1 0\n0 1 9\n")); err == nil {
		t.Error("out-of-range element accepted")
	}
	// The header's counts are claims: a negative one is an error, not a
	// panic in make.
	for _, h := range []string{"pared-mesh 2 -1 0\n", "pared-mesh 2 3 -1\n0 0 0\n1 0 0\n0 1 0\n"} {
		if _, err := ReadFrom(strings.NewReader(h)); err == nil {
			t.Errorf("negative count accepted: %q", h)
		}
	}
}

var errDiskFull = errors.New("disk full")

// fullWriter fails every write, as a full disk or a closed pipe would.
type fullWriter struct{}

func (fullWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestWritersReturnWriterError: both mesh writers buffer their output, so the
// writer's error first surfaces at the final flush; it must reach the caller.
func TestWritersReturnWriterError(t *testing.T) {
	for _, m := range []*Mesh{twoTri(), twoTet()} {
		if err := m.Write(fullWriter{}); !errors.Is(err, errDiskFull) {
			t.Errorf("%dD Write: err = %v, want %v", m.Dim, err, errDiskFull)
		}
	}
	if err := twoTri().WriteSVG(fullWriter{}, []int32{0, 1}, 100); !errors.Is(err, errDiskFull) {
		t.Errorf("WriteSVG: err = %v, want %v", err, errDiskFull)
	}
}
