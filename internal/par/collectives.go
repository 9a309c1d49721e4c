package par

// Reserved internal tags for collectives. User code should use tags >= 0;
// collectives use a disjoint negative range and carry a per-Comm sequence
// number, so they are safe to interleave with user traffic and with each
// other — provided every rank calls collectives in the same order, the usual
// MPI contract.
const (
	tagBarrierUp Tag = -1 - iota
	tagBarrierDown
	tagGather
	tagBcast
)

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() {
	c.collSeq++
	seq := c.collSeq
	if c.size == 1 {
		return
	}
	if c.rank == 0 {
		for i := 1; i < c.size; i++ {
			c.recvSeq(AnySource, tagBarrierUp, seq)
		}
		for i := 1; i < c.size; i++ {
			c.sendSeq(i, tagBarrierDown, seq, nil)
		}
	} else {
		c.sendSeq(0, tagBarrierUp, seq, nil)
		c.recvSeq(0, tagBarrierDown, seq)
	}
}

// Gather collects each rank's value at root; the returned slice (indexed by
// rank) is non-nil only at root.
func (c *Comm) Gather(root int, value any) []any {
	c.mustBeRank(root, "Gather to invalid root")
	c.collSeq++
	seq := c.collSeq
	if c.rank != root {
		c.sendSeq(root, tagGather, seq, value)
		return nil
	}
	out := make([]any, c.size)
	out[c.rank] = value
	for i := 0; i < c.size-1; i++ {
		data, from := c.recvSeq(AnySource, tagGather, seq)
		out[from] = data
	}
	return out
}

// Bcast distributes root's value to every rank and returns it.
func (c *Comm) Bcast(root int, value any) any {
	c.mustBeRank(root, "Bcast from invalid root")
	c.collSeq++
	seq := c.collSeq
	if c.rank == root {
		for i := 0; i < c.size; i++ {
			if i != root {
				c.sendSeq(i, tagBcast, seq, value)
			}
		}
		return value
	}
	data, _ := c.recvSeq(root, tagBcast, seq)
	return data
}
