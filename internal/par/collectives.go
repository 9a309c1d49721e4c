package par

import "fmt"

// Reserved internal tags for collectives, one per collective and direction.
// User code should use tags >= 0; collectives use this disjoint negative
// range and carry a per-Comm sequence number, so they are safe to interleave
// with user traffic and with each other — provided every rank calls
// collectives in the same order, the usual MPI contract.
const (
	tagBarrierUp Tag = -1 - iota
	tagBarrierDown
	tagGather
	tagBcast
	tagSplitUp
	tagSplitDown
	tagGatherI64
	tagBcastI32
	tagBcastI64
	tagAlltoallB
	tagMaxSumUp
	tagMaxSumDown
	tagScanUp
	tagScanDown
	tagSumUp
	tagSumDown
	tagSumF64Up
	tagSumF64Down
	tagAllGatherI32
	tagAllGatherI64
	tagAllGatherMoves
)

// tagNames names the collective (and its direction) behind each reserved
// tag, for the deadlock report and the paredassert mismatch panic.
var tagNames = map[Tag]string{
	tagBarrierUp:      "Barrier (up)",
	tagBarrierDown:    "Barrier (down)",
	tagGather:         "Gather",
	tagBcast:          "Bcast",
	tagSplitUp:        "Split (up)",
	tagSplitDown:      "Split (down)",
	tagGatherI64:      "GatherInt64",
	tagBcastI32:       "BcastInt32",
	tagBcastI64:       "BcastInt64",
	tagAlltoallB:      "AlltoallBytes",
	tagMaxSumUp:       "AllReduceMaxSum (up)",
	tagMaxSumDown:     "AllReduceMaxSum (down)",
	tagScanUp:         "ExclusiveScanInt64 (up)",
	tagScanDown:       "ExclusiveScanInt64 (down)",
	tagSumUp:          "AllReduceSumInt64 (up)",
	tagSumDown:        "AllReduceSumInt64 (down)",
	tagSumF64Up:       "AllReduceSumFloat64s (up)",
	tagSumF64Down:     "AllReduceSumFloat64s (down)",
	tagAllGatherI32:   "AllGatherInt32",
	tagAllGatherI64:   "AllGatherInt64",
	tagAllGatherMoves: "AllGatherMoves",
}

// tagName names a reserved tag; other tags are user point-to-point traffic.
func tagName(t Tag) string {
	if s, ok := tagNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Recv tag %d", t)
}

// nextSeq enters a collective: it advances this comm's collective counter
// and returns the sequence number that stamps the collective's messages.
func (c *Comm) nextSeq() int64 {
	c.collSeq++
	return c.collSeq
}

// fanIn: every rank except root posts m to root; root hands each of the
// size-1 arrivals, in arrival order, to take.
func (c *Comm) fanIn(root int, tag Tag, seq int64, m message, take func(*message)) {
	if c.rank != root {
		m.tag, m.seq = tag, seq
		c.post(root, &m)
		return
	}
	for i := 1; i < c.size; i++ {
		take(c.recvMsg(AnySource, tag, seq))
	}
}

// fanOut: root posts m to every other rank. It returns root's message on
// every rank (m itself at root).
func (c *Comm) fanOut(root int, tag Tag, seq int64, m message) message {
	if c.rank != root {
		return *c.recvMsg(root, tag, seq)
	}
	m.tag, m.seq = tag, seq
	for i := 0; i < c.size; i++ {
		if i != root {
			c.post(i, &m)
		}
	}
	return m
}

// exchange: every rank posts out(dst) to every other rank dst, then hands
// each of the size-1 arrivals, in arrival order, to take. No rank plays
// coordinator.
func (c *Comm) exchange(tag Tag, seq int64, out func(dst int) message, take func(*message)) {
	for i := 0; i < c.size; i++ {
		if i != c.rank {
			m := out(i)
			m.tag, m.seq = tag, seq
			c.post(i, &m)
		}
	}
	for i := 1; i < c.size; i++ {
		take(c.recvMsg(AnySource, tag, seq))
	}
}

// gather is the fan-in of one value x per rank at root: each rank posts x
// wrapped in m, and root reads it back out with lane. The result, indexed by
// rank, is non-nil only at root; out[root] is x and the other entries alias
// the senders' payloads.
func gather[T any](c *Comm, root int, tag Tag, x T, m message, lane func(*message) T) []T {
	seq := c.nextSeq()
	var out []T
	if c.rank == root {
		out = make([]T, c.size)
		out[root] = x
	}
	c.fanIn(root, tag, seq, m, func(m *message) { out[m.src] = lane(m) })
	return out
}

// allGather is the exchange of one value x per rank, wrapped and read back
// like gather's, into out (length Size), which it returns: out[rank] is x and
// the other entries alias the senders' payloads.
func allGather[T any](c *Comm, tag Tag, x T, m message, lane func(*message) T, out []T) []T {
	seq := c.nextSeq()
	out[c.rank] = x
	c.exchange(tag, seq, func(int) message { return m }, func(m *message) { out[m.src] = lane(m) })
	return out
}

// The payload lanes gather and allGather read.
func boxed(m *message) any      { return m.data }
func int32s(m *message) []int32 { return m.i32 }
func int64s(m *message) []int64 { return m.i64 }

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() {
	seq := c.nextSeq()
	c.fanIn(0, tagBarrierUp, seq, message{}, func(*message) {})
	c.fanOut(0, tagBarrierDown, seq, message{})
}

// Gather collects each rank's value at root; the returned slice (indexed by
// rank) is non-nil only at root.
func (c *Comm) Gather(root int, value any) []any {
	c.mustBeRank(root, "Gather to invalid root")
	return gather(c, root, tagGather, value, message{data: value}, boxed)
}

// Bcast distributes root's value to every rank and returns it.
func (c *Comm) Bcast(root int, value any) any {
	c.mustBeRank(root, "Bcast from invalid root")
	return c.fanOut(root, tagBcast, c.nextSeq(), message{data: value}).data
}
