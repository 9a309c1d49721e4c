package index

import (
	"math/rand"
	"slices"
	"testing"
)

// unhash inverts the multiplication of the hash: the key whose product is p.
// Keys made from products that share their top bits share a home slot in
// every table small enough, and products with all top bits set land in the
// last slot, so their probe paths wrap past the table's end.
func unhash(p uint64) uint64 {
	inv := uint64(mult) // Newton's iteration for the inverse mod 2⁶⁴
	for i := 0; i < 6; i++ {
		inv *= 2 - mult*inv
	}
	return p * inv
}

// fuzzKey maps a byte to a key. Half the bytes name keys whose products have
// their top five bits set and differ below bit 56: all of them share the last
// slot of a 16- or 32-slot table and at most eight slots at the end of a
// larger one, so they collide and wrap. The other half are small integers, as
// the initial mesh's vertex IDs and the low edge keys are.
func fuzzKey(b byte) uint64 {
	if b&1 == 0 {
		return uint64(b >> 1)
	}
	return unhash(uint64(0xf8|b>>5)<<56 | uint64(b>>1&15)<<20)
}

// checkAgainst requires m to hold exactly the entries of want.
func checkAgainst(t *testing.T, m *Map, want map[uint64]int32, step int) {
	t.Helper()
	if m.Len() != len(want) {
		t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(want))
	}
	keys := make([]uint64, 0, len(want))
	for k, v := range want {
		keys = append(keys, k)
		if got, ok := m.Find(k); !ok || got != v {
			t.Fatalf("step %d: Find(%#x) = %d, %v; want %d, true", step, k, got, ok, v)
		}
	}
	slices.Sort(keys)
	got := m.AppendKeys(nil)
	slices.Sort(got)
	if !slices.Equal(got, keys) {
		t.Fatalf("step %d: AppendKeys = %#x, want %#x", step, got, keys)
	}
	if 2*m.Len() > len(m.slots) {
		t.Fatalf("step %d: %d entries in %d slots, more than half full", step, m.Len(), len(m.slots))
	}
}

// runOps drives m and a Go map through the operations data encodes, two bytes
// each — an operation and a key — and holds m to the map after every one.
func runOps(t *testing.T, data []byte) {
	var m Map
	want := make(map[uint64]int32)
	next := int32(0)
	for step := 0; step+1 < len(data); step += 2 {
		k := fuzzKey(data[step+1])
		switch op := data[step] % 16; {
		case op < 8:
			v := next
			next++
			wv, present := want[k]
			got, ok := m.FindOrPut(k, v)
			if ok != present || (present && got != wv) || (!present && got != v) {
				t.Fatalf("step %d: FindOrPut(%#x, %d) = %d, %v; want %d, %v", step, k, v, got, ok, wv, present)
			}
			if !present {
				want[k] = v
			}
		case op < 10:
			wv, present := want[k]
			if got, ok := m.Find(k); ok != present || (present && got != wv) || (!present && got != -1) {
				t.Fatalf("step %d: Find(%#x) = %d, %v; want %d, %v", step, k, got, ok, wv, present)
			}
		default:
			wv, present := want[k]
			if got, ok := m.Delete(k); ok != present || (present && got != wv) || (!present && got != -1) {
				t.Fatalf("step %d: Delete(%#x) = %d, %v; want %d, %v", step, k, got, ok, wv, present)
			}
			delete(want, k)
		}
		checkAgainst(t, &m, want, step)
	}
}

// FuzzMap holds the index to a Go map over random sequences of FindOrPut,
// Find and Delete on keys that share home slots and wrap past the
// table's end, through every growth the sequence reaches.
func FuzzMap(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{8, 64, 600} {
		data := make([]byte, n)
		rng.Read(data)
		f.Add(data)
	}
	// Fill past one growth with colliding keys, then delete them in order.
	var fill []byte
	for b := 1; b < 40; b += 2 {
		fill = append(fill, 0, byte(b))
	}
	for b := 1; b < 40; b += 2 {
		fill = append(fill, 10, byte(b))
	}
	f.Add(fill)
	f.Fuzz(runOps)
}

// TestDeleteShiftsBackAcrossTheEnd fills the last slot of a table and the
// slots after it, wrapping to the front, then deletes from the head of the
// run: every later key must stay reachable, which a delete that only emptied
// its slot would break.
func TestDeleteShiftsBackAcrossTheEnd(t *testing.T) {
	var m Map
	var keys []uint64
	for i := 0; i < 6; i++ {
		k := unhash(^uint64(0) - uint64(i)<<8)
		keys = append(keys, k)
		m.FindOrPut(k, int32(i))
	}
	if h := m.home(keys[0]); h != len(m.slots)-1 {
		t.Fatalf("home of the colliding keys is %d, want the last slot %d", h, len(m.slots)-1)
	}
	for i, k := range keys {
		if v, ok := m.Delete(k); !ok || v != int32(i) {
			t.Fatalf("Delete(key %d) = %d, %v", i, v, ok)
		}
		for j, k2 := range keys[i+1:] {
			if v, ok := m.Find(k2); !ok || v != int32(i+1+j) {
				t.Fatalf("after deleting key %d: Find(key %d) = %d, %v", i, i+1+j, v, ok)
			}
		}
	}
	if m.Len() != 0 || len(m.AppendKeys(nil)) != 0 {
		t.Fatalf("%d entries left", m.Len())
	}
}

// TestZeroMap uses the zero Map directly with key 0, which is also the key an
// empty slot holds.
func TestZeroMap(t *testing.T) {
	var m Map
	if _, ok := m.Find(0); ok {
		t.Fatal("the zero Map finds key 0")
	}
	if _, ok := m.Delete(0); ok {
		t.Fatal("the zero Map deletes key 0")
	}
	if v, ok := m.FindOrPut(0, 7); ok || v != 7 {
		t.Fatalf("FindOrPut(0, 7) = %d, %v", v, ok)
	}
	if v, ok := m.FindOrPut(0, 9); !ok || v != 7 {
		t.Fatalf("FindOrPut(0, 9) = %d, %v, want 7, true", v, ok)
	}
	if v, ok := m.Delete(0); !ok || v != 7 {
		t.Fatalf("Delete(0) = %d, %v, want 7, true", v, ok)
	}
	if _, ok := m.Find(0); ok || m.Len() != 0 {
		t.Fatal("the emptied Map finds key 0")
	}
}

// TestClearKeepsTheTable: a cleared Map is empty, keeps its table and takes
// the same keys again.
func TestClearKeepsTheTable(t *testing.T) {
	var m Map
	for k := uint64(0); k < 100; k++ {
		m.FindOrPut(k, int32(k))
	}
	size := len(m.slots)
	m.Clear()
	if m.Len() != 0 || len(m.slots) != size || len(m.AppendKeys(nil)) != 0 {
		t.Fatalf("after Clear: %d entries, %d slots (had %d)", m.Len(), len(m.slots), size)
	}
	for k := uint64(0); k < 100; k++ {
		if _, ok := m.Find(k); ok {
			t.Fatalf("key %d found after Clear", k)
		}
		if v, ok := m.FindOrPut(k, int32(k+1)); ok || v != int32(k+1) {
			t.Fatalf("FindOrPut(%d) after Clear = %d, %v", k, v, ok)
		}
	}
}

// TestFindOrPutRejectsNegative: values are stored plus one, so a negative
// one would read back as absent or as another value.
func TestFindOrPutRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FindOrPut(1, -1) did not panic")
		}
	}()
	var m Map
	m.FindOrPut(1, -1)
}

// TestSameCallsSameLayout: the layout is a function of the calls alone.
func TestSameCallsSameLayout(t *testing.T) {
	var a, b Map
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(3000))
		if rng.Intn(3) == 0 {
			a.Delete(k)
			b.Delete(k)
		} else {
			a.FindOrPut(k, int32(i))
			b.FindOrPut(k, int32(i))
		}
	}
	if !slices.Equal(a.slots, b.slots) || a.n != b.n {
		t.Fatal("two maps driven by the same calls differ")
	}
}
