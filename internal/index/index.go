// Package index is the uint64 → int32 hash index of the refinement path: the
// refiner's edge records and the forest's vertex table are found through it,
// and so is the engine's shared-vertex set.
//
// It is open-addressed with linear probing. A key's home slot is the top
// bits of the key times a 64-bit odd constant (multiplicative hashing); the
// table is a power of two in size and at most half full, so a probe is short
// and stays on one or two cache lines. Delete shifts the entries after the
// hole back instead of leaving a tombstone, so a table that churns — edges
// come and go with every bisection and coarsening — never slows down or needs
// rebuilding.
//
// The layout is a pure function of the sequence of calls, so two indexes
// driven by the same calls are equal field for field. There is no iteration
// order to rely on: AppendKeys returns the keys in slot order, which callers
// sort.
package index

import "math/bits"

// mult is the multiplier of the hash: 2⁶⁴ divided by the golden ratio, odd.
const mult = 0x9e3779b97f4a7c15

// minSlots is the size of the first table.
const minSlots = 16

// slot holds one entry. v is the value plus one, so the zero slot is empty
// and a new table needs no fill.
type slot struct {
	k uint64
	v int32
}

// Map is a uint64 → int32 hash index for non-negative values. The zero Map is
// empty and ready to use.
type Map struct {
	slots []slot
	n     int  // entries
	shift uint // 64 − log2(len(slots))
}

// home returns the slot k hashes to.
func (m *Map) home(k uint64) int { return int((k * mult) >> m.shift) }

// Len returns the number of entries.
func (m *Map) Len() int { return m.n }

// Find returns the value of key k and true, or −1 and false if k is absent.
func (m *Map) Find(k uint64) (int32, bool) {
	if i := m.locate(k); i >= 0 {
		return m.slots[i].v - 1, true
	}
	return -1, false
}

// FindOrPut returns the value of key k and true if k is present; otherwise it
// enters k with value v, which must not be negative, and returns v and false.
// Either way it probes once, unless the entry makes the table more than half
// full, when the table doubles first.
func (m *Map) FindOrPut(k uint64, v int32) (int32, bool) {
	if v < 0 {
		panic("index: negative value")
	}
	if len(m.slots) > 0 {
		mask := len(m.slots) - 1
		i := m.home(k)
		for ; m.slots[i].v != 0; i = (i + 1) & mask {
			if m.slots[i].k == k {
				return m.slots[i].v - 1, true
			}
		}
		if 2*(m.n+1) <= len(m.slots) {
			m.slots[i] = slot{k, v + 1}
			m.n++
			return v, false
		}
	}
	m.grow()
	m.insert(k, v+1)
	m.n++
	return v, false
}

// Delete removes key k and returns its value and true, or −1 and false if k
// is absent. Each entry after the hole, up to the next empty slot, moves back
// into the hole if the hole lies on its probe path — between its home and
// where it sits, cyclically — and the hole moves to where it was; so every
// probe path stays unbroken without a tombstone.
func (m *Map) Delete(k uint64) (int32, bool) {
	i := m.locate(k)
	if i < 0 {
		return -1, false
	}
	mask := len(m.slots) - 1
	v := m.slots[i].v
	for j := (i + 1) & mask; m.slots[j].v != 0; j = (j + 1) & mask {
		if (j-m.home(m.slots[j].k))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = slot{}
	m.n--
	return v - 1, true
}

// Clear removes every entry and keeps the table for reuse.
func (m *Map) Clear() {
	clear(m.slots)
	m.n = 0
}

// AppendKeys appends every key to dst, in slot order, and returns it.
func (m *Map) AppendKeys(dst []uint64) []uint64 {
	for _, s := range m.slots {
		if s.v != 0 {
			dst = append(dst, s.k)
		}
	}
	return dst
}

// grow doubles the table (or makes the first one) and re-enters every entry
// in slot order.
func (m *Map) grow() {
	old := m.slots
	size := max(2*len(old), minSlots)
	m.slots = make([]slot, size)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.v != 0 {
			m.insert(s.k, s.v)
		}
	}
}

// locate returns the slot holding key k, or −1.
func (m *Map) locate(k uint64) int {
	if m.n == 0 {
		return -1
	}
	mask := len(m.slots) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		switch s := &m.slots[i]; {
		case s.v == 0:
			return -1
		case s.k == k:
			return i
		}
	}
}

// insert enters stored value sv under k, which must be absent, in the first
// empty slot of k's probe path.
func (m *Map) insert(k uint64, sv int32) {
	mask := len(m.slots) - 1
	i := m.home(k)
	for m.slots[i].v != 0 {
		i = (i + 1) & mask
	}
	m.slots[i] = slot{k, sv}
}
