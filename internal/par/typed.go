package par

import "fmt"

// Typed collectives and lanes: the API every caller in the engine, the
// solve, the commands and the examples uses. The boxed Send/Recv/Gather/Bcast
// carry `any` payloads: every send boxes the value into an interface and
// every receive type-asserts it back out, which costs an allocation per
// message and defeats escape analysis for the slices inside. Everything the
// system moves is a flat int32/int64/float64/byte slice, so these variants
// carry the slice headers in dedicated message fields — no boxing, no copies,
// no assertions.
//
// Ownership follows the package convention: senders relinquish what they
// send. Received slices are shared with the sender (and, for BcastInt32,
// with every rank), so receivers must treat them as read-only or copy.
//
// The []float64 lane carries the distributed solve (pared/solver.go): the
// point-to-point SendFloat64s/RecvFloat64s pair moves the per-neighbour halo
// values of every CG iteration, and AllReduceSumFloat64s its inner products.
//
// The scalar collectives (AllReduceMaxSum, AllReduceSumInt64,
// ExclusiveScanInt64, AllReduceSumFloat64s) send their few-word payloads from
// per-Comm scratch instead of allocating a fresh slice per call, so they are
// zero-alloc in steady state — on the world comm and on every split comm.
// Reuse is safe by the same reuse-distance argument as AllGatherMoves: a
// rank overwrites its up-lane scratch only after it received the down
// message of the previous round, which the root sent only after reading
// every up payload of that round; the root overwrites its down-lane scratch
// only after collecting every up of the NEXT round, which each peer sent
// only after reading the previous down. The channel send/receive pairs give
// the happens-before edges, so the reuse is also race-detector-clean.

// Reserved tags continuing the collective range in collectives.go.
const (
	tagGatherI32 Tag = -100 - iota
	tagGatherI64
	tagBcastI32
	tagAlltoallB
	tagMaxSumUp
	tagMaxSumDown
	tagScanUp
	tagScanDown
	tagSumUp
	tagSumDown
	tagAllGatherI32
	tagAllGatherI64
	tagAllGatherMoves
	tagBcastI64
	tagSumF64Up
	tagSumF64Down
)

// scalarScratch is the per-Comm send scratch of the scalar collectives.
// up is the one-word up lane every rank sends toward rank 0; down is the
// up-to-two-word result lane rank 0 fans back out; scan is rank 0's lazily
// sized per-rank value/prefix store for ExclusiveScanInt64. fup, fdown and
// fvals are the same three roles for AllReduceSumFloat64s.
type scalarScratch struct {
	up   [1]int64
	down [2]int64
	scan []int64 // 2*size at rank 0: values, then per-rank prefix slots

	fup   [maxReduceWords]float64
	fdown [maxReduceWords]float64
	fvals []float64 // maxReduceWords*size at rank 0: every rank's words
}

// AllReduceMaxSum combines every rank's value into (max, sum) in one fused
// round — one gather and one broadcast. The engine's cheap imbalance probe
// runs this every epoch, including the epochs that go on to skip rebalancing
// entirely, so the probe must not cost more than the decision it avoids.
func (c *Comm) AllReduceMaxSum(value int64) (max, sum int64) {
	c.collSeq++
	seq := c.collSeq
	if c.rank != 0 {
		c.sc.up[0] = value
		c.post(0, message{tag: tagMaxSumUp, seq: seq, i64: c.sc.up[:1]})
		m := c.recvMsg(0, tagMaxSumDown, seq)
		return m.i64[0], m.i64[1]
	}
	max, sum = value, value
	for i := 0; i < c.size-1; i++ {
		m := c.recvMsg(AnySource, tagMaxSumUp, seq)
		v := m.i64[0]
		if v > max {
			max = v
		}
		sum += v
	}
	c.sc.down[0], c.sc.down[1] = max, sum
	for i := 1; i < c.size; i++ {
		c.post(i, message{tag: tagMaxSumDown, seq: seq, i64: c.sc.down[:2]})
	}
	return max, sum
}

// AllReduceSumInt64 sums an int64 across ranks in one fused up/down round;
// the engine's counters and the SFC strategy's total curve weight use it.
func (c *Comm) AllReduceSumInt64(value int64) int64 {
	c.collSeq++
	seq := c.collSeq
	if c.rank != 0 {
		c.sc.up[0] = value
		c.post(0, message{tag: tagSumUp, seq: seq, i64: c.sc.up[:1]})
		m := c.recvMsg(0, tagSumDown, seq)
		return m.i64[0]
	}
	sum := value
	for i := 0; i < c.size-1; i++ {
		m := c.recvMsg(AnySource, tagSumUp, seq)
		sum += m.i64[0]
	}
	c.sc.down[0] = sum
	for i := 1; i < c.size; i++ {
		c.post(i, message{tag: tagSumDown, seq: seq, i64: c.sc.down[:1]})
	}
	return sum
}

// maxReduceWords bounds the vector AllReduceSumFloat64s reduces in one round.
const maxReduceWords = 4

// AllReduceSumFloat64s sums vals element-wise across ranks, in place, in one
// fused up/down round; len(vals) must be the same on every rank and at most
// maxReduceWords. Rank 0 folds each word from +0 in ascending rank order, so
// the result is bit-identical on every rank and independent of message
// arrival order — the distributed CG's inner products rely on both.
func (c *Comm) AllReduceSumFloat64s(vals []float64) {
	k := len(vals)
	if k > maxReduceWords {
		panic(fmt.Sprintf("par: AllReduceSumFloat64s reduces at most %d words, got %d", maxReduceWords, k))
	}
	c.collSeq++
	seq := c.collSeq
	if c.rank != 0 {
		copy(c.sc.fup[:k], vals)
		c.post(0, message{tag: tagSumF64Up, seq: seq, f64: c.sc.fup[:k]})
		m := c.recvMsg(0, tagSumF64Down, seq)
		copy(vals, m.f64)
		return
	}
	if c.sc.fvals == nil {
		c.sc.fvals = make([]float64, maxReduceWords*c.size)
	}
	all := c.sc.fvals
	copy(all[:k], vals)
	for i := 0; i < c.size-1; i++ {
		m := c.recvMsg(AnySource, tagSumF64Up, seq)
		copy(all[maxReduceWords*m.src:], m.f64[:k])
	}
	for w := 0; w < k; w++ {
		sum := 0.0
		for r := 0; r < c.size; r++ {
			sum += all[maxReduceWords*r+w]
		}
		c.sc.fdown[w] = sum
	}
	copy(vals, c.sc.fdown[:k])
	for i := 1; i < c.size; i++ {
		c.post(i, message{tag: tagSumF64Down, seq: seq, f64: c.sc.fdown[:k]})
	}
}

// SendFloat64s is Send for a []float64 payload on its own lane: the slice
// header travels inline, so nothing is boxed or copied. The receiver reads
// xs itself — the sender must not overwrite it until the receiver is known
// to be done with it (see the two-buffer schedule in pared/solver.go).
func (c *Comm) SendFloat64s(dst int, tag Tag, xs []float64) {
	c.mustBeRank(dst, "SendFloat64s to invalid rank")
	c.post(dst, message{tag: tag, f64: xs})
}

// RecvFloat64s is Recv for a message sent with SendFloat64s; the returned
// slice aliases the sender's buffer and is read-only.
func (c *Comm) RecvFloat64s(src int, tag Tag) (xs []float64, from int) {
	if src != AnySource {
		c.mustBeRank(src, "RecvFloat64s from invalid rank")
	}
	m := c.recvMsg(src, tag, 0)
	return m.f64, m.src
}

// ExclusiveScanInt64 returns the sum of value over all lower ranks — MPI's
// Exscan: rank 0 gets 0, rank r gets Σ_{q<r} value_q. This is the collective
// at the heart of the coordinator-free SFC repartitioner: a rank that knows
// the total weight of every rank before it in curve order can place its own
// elements on the global weight axis without any rank ever holding the whole
// weight vector. Rank 0 folds the per-rank values in rank order (the only
// deterministic order) and fans the prefixes back out; payloads are O(1)
// int64s per rank either way, so no rank's cost grows with the mesh.
func (c *Comm) ExclusiveScanInt64(value int64) int64 {
	c.collSeq++
	seq := c.collSeq
	if c.rank != 0 {
		c.sc.up[0] = value
		c.post(0, message{tag: tagScanUp, seq: seq, i64: c.sc.up[:1]})
		m := c.recvMsg(0, tagScanDown, seq)
		return m.i64[0]
	}
	if c.sc.scan == nil {
		c.sc.scan = make([]int64, 2*c.size)
	}
	vals, prefixes := c.sc.scan[:c.size], c.sc.scan[c.size:]
	vals[0] = value
	for i := 0; i < c.size-1; i++ {
		m := c.recvMsg(AnySource, tagScanUp, seq)
		vals[m.src] = m.i64[0]
	}
	prefix := int64(0)
	for r := 1; r < c.size; r++ {
		prefix += vals[r-1]
		prefixes[r] = prefix
		c.post(r, message{tag: tagScanDown, seq: seq, i64: prefixes[r : r+1]})
	}
	return 0
}

// AllGatherInt32 delivers every rank's []int32 to every rank; the result is
// indexed by source rank. out[rank] aliases the local argument and remote
// entries alias the senders' slices — treat the result as read-only. The
// exchange is fully symmetric (each rank sends to every other), so no rank
// plays coordinator.
func (c *Comm) AllGatherInt32(xs []int32) [][]int32 {
	c.collSeq++
	seq := c.collSeq
	out := make([][]int32, c.size)
	out[c.rank] = xs
	for i := 0; i < c.size; i++ {
		if i != c.rank {
			c.post(i, message{tag: tagAllGatherI32, seq: seq, i32: xs})
		}
	}
	for i := 0; i < c.size-1; i++ {
		m := c.recvMsg(AnySource, tagAllGatherI32, seq)
		out[m.src] = m.i32
	}
	return out
}

// AllGatherInt64 delivers every rank's []int64 to every rank, like
// AllGatherInt32.
func (c *Comm) AllGatherInt64(xs []int64) [][]int64 {
	c.collSeq++
	seq := c.collSeq
	out := make([][]int64, c.size)
	out[c.rank] = xs
	for i := 0; i < c.size; i++ {
		if i != c.rank {
			c.post(i, message{tag: tagAllGatherI64, seq: seq, i64: xs})
		}
	}
	for i := 0; i < c.size-1; i++ {
		m := c.recvMsg(AnySource, tagAllGatherI64, seq)
		out[m.src] = m.i64
	}
	return out
}

// AllGatherMoves delivers every rank's packed move words to every rank,
// concatenated in ascending rank order into out (grown as needed and
// returned). It is the move-exchange collective of the distributed
// refinement sweep (core.distRefineSweep): because every rank folds the
// lanes in the same rank order, all ranks decode the identical proposal
// sequence, which is what makes the sweep's conflict resolution
// rank-count-invariant.
//
// Unlike the other typed collectives the result does NOT alias any sender's
// buffer: each incoming lane is copied into out before the call returns.
// Senders still must not reuse a sent buffer until every peer has finished
// the NEXT collective (a peer may dequeue this round's message only when it
// enters the next one), so callers alternate two send buffers — see the
// reuse-distance argument at the core call site. views is caller scratch for
// the incoming slice headers; it must have length Size.
func (c *Comm) AllGatherMoves(moves []int64, views [][]int64, out []int64) []int64 {
	if len(views) != c.size {
		panic("par: AllGatherMoves needs one view slot per rank")
	}
	c.collSeq++
	seq := c.collSeq
	views[c.rank] = moves
	for i := 0; i < c.size; i++ {
		if i != c.rank {
			c.post(i, message{tag: tagAllGatherMoves, seq: seq, i64: moves})
		}
	}
	for i := 0; i < c.size-1; i++ {
		m := c.recvMsg(AnySource, tagAllGatherMoves, seq)
		views[m.src] = m.i64
	}
	total := 0
	for _, v := range views {
		total += len(v)
	}
	if cap(out) < total {
		out = make([]int64, total)
	}
	out = out[:0]
	for _, v := range views {
		out = append(out, v...)
	}
	return out
}

// GatherInt32 collects each rank's []int32 at root. The result (indexed by
// rank) is non-nil only at root; out[rank] aliases the sender's slice.
func (c *Comm) GatherInt32(root int, xs []int32) [][]int32 {
	c.mustBeRank(root, "GatherInt32 to invalid root")
	c.collSeq++
	seq := c.collSeq
	if c.rank != root {
		c.post(root, message{tag: tagGatherI32, seq: seq, i32: xs})
		return nil
	}
	out := make([][]int32, c.size)
	out[c.rank] = xs
	for i := 0; i < c.size-1; i++ {
		m := c.recvMsg(AnySource, tagGatherI32, seq)
		out[m.src] = m.i32
	}
	return out
}

// GatherInt64 collects each rank's []int64 at root, like GatherInt32.
func (c *Comm) GatherInt64(root int, xs []int64) [][]int64 {
	c.mustBeRank(root, "GatherInt64 to invalid root")
	c.collSeq++
	seq := c.collSeq
	if c.rank != root {
		c.post(root, message{tag: tagGatherI64, seq: seq, i64: xs})
		return nil
	}
	out := make([][]int64, c.size)
	out[c.rank] = xs
	for i := 0; i < c.size-1; i++ {
		m := c.recvMsg(AnySource, tagGatherI64, seq)
		out[m.src] = m.i64
	}
	return out
}

// BcastInt32 distributes root's []int32 to every rank and returns it. All
// ranks share the same backing array; treat the result as read-only.
func (c *Comm) BcastInt32(root int, xs []int32) []int32 {
	c.mustBeRank(root, "BcastInt32 from invalid root")
	c.collSeq++
	seq := c.collSeq
	if c.rank == root {
		for i := 0; i < c.size; i++ {
			if i != root {
				c.post(i, message{tag: tagBcastI32, seq: seq, i32: xs})
			}
		}
		return xs
	}
	m := c.recvMsg(root, tagBcastI32, seq)
	return m.i32
}

// BcastInt64 distributes root's []int64 to every rank and returns it, like
// BcastInt32. The hierarchical rebalance pipeline uses it to fan a node
// group's combined delta payload from the group leader to the group.
func (c *Comm) BcastInt64(root int, xs []int64) []int64 {
	c.mustBeRank(root, "BcastInt64 from invalid root")
	c.collSeq++
	seq := c.collSeq
	if c.rank == root {
		for i := 0; i < c.size; i++ {
			if i != root {
				c.post(i, message{tag: tagBcastI64, seq: seq, i64: xs})
			}
		}
		return xs
	}
	m := c.recvMsg(root, tagBcastI64, seq)
	return m.i64
}

// AlltoallBytes delivers send[i] to rank i and returns the buffers received
// from every rank (indexed by source). send must have length Size; nil
// entries are delivered as nil.
func (c *Comm) AlltoallBytes(send [][]byte) [][]byte {
	if len(send) != c.size {
		panic("par: AlltoallBytes needs one buffer per rank")
	}
	c.collSeq++
	seq := c.collSeq
	recv := make([][]byte, c.size)
	recv[c.rank] = send[c.rank]
	for i := 0; i < c.size; i++ {
		if i != c.rank {
			c.post(i, message{tag: tagAlltoallB, seq: seq, bytes: send[i]})
		}
	}
	for i := 0; i < c.size-1; i++ {
		m := c.recvMsg(AnySource, tagAlltoallB, seq)
		recv[m.src] = m.bytes
	}
	return recv
}
