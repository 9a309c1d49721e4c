package par

import "sort"

// Split partitions the ranks of c into disjoint sub-communicators, one per
// distinct non-negative color: MPI_Comm_split. Every member of c must call
// Split in the same collective order (it is a collective on c). Ranks that
// pass the same color land in the same sub-communicator; a negative color
// opts out and returns nil — the MPI_UNDEFINED idiom, which is how a
// group-leader comm spanning one rank per node is built (leaders pass their
// node id, everyone else passes a negative color; the caller then guards
// leader collectives with `if leaders != nil`).
//
// Rank numbering in the child is deterministic: members are ordered by
// (key, parent rank) ascending, so equal keys fall back to parent-rank order
// and the numbering depends only on the (color, key) vectors — never on
// scheduling. The child reuses the parent's transport (same goroutines, same
// inboxes, shared pending queue); its traffic is scoped by a communicator
// identity derived deterministically from (parent identity, per-parent split
// counter, color), so all members compute the identical identity with no
// global allocator and sibling comms never cross-match.
func (c *Comm) Split(color, key int64) *Comm {
	seq := c.nextSeq()
	c.splitSeq++
	// Replicate the (color, key) table: fan in at parent rank 0, fan back out.
	// Only the other ranks build a two-word up payload.
	var table []int64
	if c.rank == 0 {
		table = make([]int64, 2*c.size)
		table[0], table[1] = color, key
	} else {
		table = []int64{color, key}
	}
	c.fanIn(0, tagSplitUp, seq, message{i64: table}, func(m *message) { copy(table[2*m.src:], m.i64) })
	table = c.fanOut(0, tagSplitDown, seq, message{i64: table}).i64
	if color < 0 {
		return nil
	}
	// Membership: parent ranks with my color, ordered by (key, parent rank):
	// they are collected in parent-rank order, so a stable sort by key.
	type member struct {
		key int64
		r   int
	}
	var members []member
	for r := 0; r < c.size; r++ {
		if table[2*r] == color {
			members = append(members, member{key: table[2*r+1], r: r})
		}
	}
	sort.SliceStable(members, func(i, j int) bool { return members[i].key < members[j].key })
	sub := &Comm{
		size:  len(members),
		world: c.world,
		ep:    c.ep,
		id:    childID(c.id, c.splitSeq, color),
		ranks: make([]int32, len(members)),
	}
	for i, m := range members {
		sub.ranks[i] = int32(c.worldRank(m.r))
		if m.r == c.rank {
			sub.rank = i
		}
	}
	return sub
}

// childID derives a sub-communicator identity from the parent's identity, the
// parent's split counter and the color. Members of one subgroup share all
// three inputs, so they agree on the identity without any coordination;
// sibling subgroups differ in color and successive Split calls differ in the
// counter, so identities never repeat along any split lineage (collisions of
// the 64-bit mix across unrelated lineages are negligible).
func childID(parent uint64, splitSeq, color int64) uint64 {
	h := mix64(parent ^ uint64(splitSeq))
	h = mix64(h ^ uint64(color))
	if h == worldID {
		h = 0x9e3779b97f4a7c15
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap bijective mixer with full
// avalanche, enough to keep derived communicator identities distinct.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
