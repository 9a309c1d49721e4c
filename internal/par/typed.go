package par

import "fmt"

// Typed collectives: the rooted gathers and broadcasts, reductions, scans,
// all-gathers and all-to-all on the slice lanes, and the []float64
// point-to-point pair. The []float64 lane carries the distributed solve
// (pared/solver.go): SendFloat64s/RecvFloat64s move the per-neighbour halo
// values of every CG iteration, and AllReduceSumFloat64s its inner products.
//
// Ownership follows the package convention: senders relinquish what they
// send. Received slices are shared with the sender (and, for the
// broadcasts, with every rank), so receivers must treat them as read-only
// or copy.
//
// The scalar collectives (AllReduceMaxSum, AllReduceSumInt64,
// ExclusiveScanInt64, AllReduceSumFloat64s) send their few-word payloads from
// per-Comm scratch instead of allocating a fresh slice per call, so they are
// zero-alloc in steady state — on the world comm and on every split comm.
// Reuse is safe by reuse distance: a rank overwrites its up scratch only
// after it received the fan-out of the previous round, which rank 0 posted
// only after taking every fan-in payload of that round; rank 0 overwrites a
// down scratch word that rank r reads only after taking r's fan-in of the
// NEXT round, which r posted only after reading the previous fan-out. The
// channel send/receive pairs give the happens-before edges, so the reuse is
// also race-detector-clean. (A rank also writes the scratch of the role it
// does not play; nobody reads that copy.)

// scalarScratch is the per-Comm send scratch of the scalar collectives.
// up is the one-word fan-in every rank sends toward rank 0; down is the
// up-to-two-word result rank 0 fans back out; scan is rank 0's lazily sized
// per-rank value/prefix store for ExclusiveScanInt64. fup, fdown and fvals
// are the same three roles for AllReduceSumFloat64s.
type scalarScratch struct {
	up   [1]int64
	down [2]int64
	scan []int64 // size words at rank 0: values, folded in place to prefixes

	fup   [maxReduceWords]float64
	fdown [maxReduceWords]float64
	fvals []float64 // maxReduceWords*size at rank 0: every rank's words
}

// up stages value in the one-word up scratch and returns the fan-in message.
func (c *Comm) up(value int64) message {
	c.sc.up[0] = value
	return message{i64: c.sc.up[:1]}
}

// AllReduceMaxSum combines every rank's value into (max, sum) in one fused
// round — one gather and one broadcast. The engine's cheap imbalance probe
// runs this every epoch, including the epochs that go on to skip rebalancing
// entirely, so the probe must not cost more than the decision it avoids.
func (c *Comm) AllReduceMaxSum(value int64) (hi, sum int64) {
	seq := c.nextSeq()
	hi, sum = value, value
	c.fanIn(0, tagMaxSumUp, seq, c.up(value), func(m *message) {
		hi = max(hi, m.i64[0])
		sum += m.i64[0]
	})
	c.sc.down = [2]int64{hi, sum}
	m := c.fanOut(0, tagMaxSumDown, seq, message{i64: c.sc.down[:2]})
	return m.i64[0], m.i64[1]
}

// AllReduceSumInt64 sums an int64 across ranks in one fused up/down round;
// the engine's counters and the SFC strategy's total curve weight use it.
func (c *Comm) AllReduceSumInt64(value int64) int64 {
	seq := c.nextSeq()
	sum := value
	c.fanIn(0, tagSumUp, seq, c.up(value), func(m *message) { sum += m.i64[0] })
	c.sc.down[0] = sum
	return c.fanOut(0, tagSumDown, seq, message{i64: c.sc.down[:1]}).i64[0]
}

// maxReduceWords bounds the vector AllReduceSumFloat64s reduces in one round.
const maxReduceWords = 4

// AllReduceSumFloat64s sums vals element-wise across ranks, in place, in one
// fused up/down round; len(vals) must be the same on every rank and at most
// maxReduceWords, and rank 0 panics on an arrival of another length. Rank 0
// folds each word from +0 in ascending rank order, so the result is
// bit-identical on every rank and independent of message arrival order — the
// distributed CG's inner products rely on both.
func (c *Comm) AllReduceSumFloat64s(vals []float64) {
	k := len(vals)
	if k > maxReduceWords {
		panic(fmt.Sprintf("par: AllReduceSumFloat64s reduces at most %d words, got %d", maxReduceWords, k))
	}
	seq := c.nextSeq()
	if c.rank == 0 && c.sc.fvals == nil {
		c.sc.fvals = make([]float64, maxReduceWords*c.size)
	}
	all := c.sc.fvals
	copy(c.sc.fup[:k], vals)
	c.fanIn(0, tagSumF64Up, seq, message{f64: c.sc.fup[:k]}, func(m *message) {
		if len(m.f64) != k {
			panic(fmt.Sprintf("par: AllReduceSumFloat64s: rank %d sent %d words, rank 0 reduces %d", m.src, len(m.f64), k))
		}
		copy(all[maxReduceWords*m.src:], m.f64)
	})
	if c.rank == 0 {
		copy(all, vals)
		for w := 0; w < k; w++ {
			sum := 0.0
			for r := 0; r < c.size; r++ {
				sum += all[maxReduceWords*r+w]
			}
			c.sc.fdown[w] = sum
		}
	}
	copy(vals, c.fanOut(0, tagSumF64Down, seq, message{f64: c.sc.fdown[:k]}).f64)
}

// SendFloat64s is Send for a []float64 payload on its own lane: the slice
// header travels inline, so nothing is boxed or copied. The receiver reads
// xs itself — the sender must not overwrite it until the receiver is known
// to be done with it (see the two-buffer schedule in pared/solver.go).
func (c *Comm) SendFloat64s(dst int, tag Tag, xs []float64) {
	c.mustBeRank(dst, "SendFloat64s to invalid rank")
	c.post(dst, &message{tag: tag, f64: xs})
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
// deterministic order) and fans the prefixes back out, each rank reading its
// own word; payloads are O(1) int64s per message up and O(size) down, so no
// rank's cost grows with the mesh.
func (c *Comm) ExclusiveScanInt64(value int64) int64 {
	seq := c.nextSeq()
	if c.rank == 0 && c.sc.scan == nil {
		c.sc.scan = make([]int64, c.size)
	}
	vals := c.sc.scan
	c.fanIn(0, tagScanUp, seq, c.up(value), func(m *message) { vals[m.src] = m.i64[0] })
	if c.rank == 0 {
		vals[0] = value
		prefix := int64(0)
		for r, v := range vals {
			vals[r] = prefix
			prefix += v
		}
	}
	return c.fanOut(0, tagScanDown, seq, message{i64: vals}).i64[c.rank]
}

// AllGatherInt32 delivers every rank's []int32 to every rank; the result is
// indexed by source rank. out[rank] aliases the local argument and remote
// entries alias the senders' slices — treat the result as read-only. The
// exchange is fully symmetric (each rank sends to every other), so no rank
// plays coordinator.
func (c *Comm) AllGatherInt32(xs []int32) [][]int32 {
	return allGather(c, tagAllGatherI32, xs, message{i32: xs}, int32s, make([][]int32, c.size))
}

// AllGatherInt64 delivers every rank's []int64 to every rank, like
// AllGatherInt32.
func (c *Comm) AllGatherInt64(xs []int64) [][]int64 {
	return allGather(c, tagAllGatherI64, xs, message{i64: xs}, int64s, make([][]int64, c.size))
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
	allGather(c, tagAllGatherMoves, moves, message{i64: moves}, int64s, views)
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

// GatherInt64 collects each rank's []int64 at root. The result (indexed by
// rank) is non-nil only at root; out[rank] aliases the sender's slice.
func (c *Comm) GatherInt64(root int, xs []int64) [][]int64 {
	c.mustBeRank(root, "GatherInt64 to invalid root")
	return gather(c, root, tagGatherI64, xs, message{i64: xs}, int64s)
}

// BcastInt32 distributes root's []int32 to every rank and returns it. All
// ranks share the same backing array; treat the result as read-only.
func (c *Comm) BcastInt32(root int, xs []int32) []int32 {
	c.mustBeRank(root, "BcastInt32 from invalid root")
	return c.fanOut(root, tagBcastI32, c.nextSeq(), message{i32: xs}).i32
}

// BcastInt64 distributes root's []int64 to every rank and returns it, like
// BcastInt32. The hierarchical rebalance pipeline uses it to fan a node
// group's combined delta payload from the group leader to the group.
func (c *Comm) BcastInt64(root int, xs []int64) []int64 {
	c.mustBeRank(root, "BcastInt64 from invalid root")
	return c.fanOut(root, tagBcastI64, c.nextSeq(), message{i64: xs}).i64
}

// AlltoallBytes delivers send[i] to rank i and returns the buffers received
// from every rank (indexed by source). send must have length Size; nil
// entries are delivered as nil.
func (c *Comm) AlltoallBytes(send [][]byte) [][]byte {
	if len(send) != c.size {
		panic("par: AlltoallBytes needs one buffer per rank")
	}
	recv := make([][]byte, c.size)
	recv[c.rank] = send[c.rank]
	c.exchange(tagAlltoallB, c.nextSeq(),
		func(dst int) message { return message{bytes: send[dst]} },
		func(m *message) { recv[m.src] = m.bytes })
	return recv
}
