package par

import (
	"bytes"
	"fmt"
	"testing"
)

// TestSplitMembershipAndNumbering checks the deterministic child numbering:
// members are ordered by (key, parent rank), so reversed keys reverse the
// numbering and equal keys fall back to parent-rank order.
func TestSplitMembershipAndNumbering(t *testing.T) {
	const p = 6
	err := Run(p, func(c *Comm) {
		// Two groups by parity; keys reverse the parent order inside each.
		sub := c.Split(int64(c.Rank()%2), int64(-c.Rank()))
		if sub == nil {
			panic("non-negative color must join a subgroup")
		}
		if sub.Size() != p/2 {
			panic(fmt.Sprintf("subgroup size %d, want %d", sub.Size(), p/2))
		}
		// Parity group members in parent order: {0,2,4} or {1,3,5}; reversed
		// keys make the highest parent rank sub-rank 0.
		wantRank := (p - 1 - c.Rank()) / 2
		if sub.Rank() != wantRank {
			panic(fmt.Sprintf("world rank %d got sub rank %d, want %d", c.Rank(), sub.Rank(), wantRank))
		}
		for i := 0; i < sub.Size(); i++ {
			want := p - 2 - 2*i + c.Rank()%2
			if sub.worldRank(i) != want {
				panic(fmt.Sprintf("sub rank %d maps to world %d, want %d", i, sub.worldRank(i), want))
			}
		}

		// Equal keys: numbering falls back to ascending parent rank.
		flat := c.Split(0, 0)
		if flat.Size() != p || flat.Rank() != c.Rank() {
			panic("equal keys must preserve parent order")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitNegativeColor checks the MPI_UNDEFINED idiom: a negative color
// opts out and returns nil while the rest of the ranks form their groups.
func TestSplitNegativeColor(t *testing.T) {
	const p = 5
	err := Run(p, func(c *Comm) {
		color := int64(-1)
		if c.Rank()%2 == 0 {
			color = 7
		}
		sub := c.Split(color, 0)
		if c.Rank()%2 != 0 {
			if sub != nil {
				panic("negative color must return nil")
			}
			return
		}
		if sub == nil || sub.Size() != 3 || sub.Rank() != c.Rank()/2 {
			panic("even ranks must form a 3-member subgroup in parent order")
		}
		if got := sub.AllReduceSumInt64(int64(c.Rank())); got != 0+2+4 {
			panic(fmt.Sprintf("subgroup sum %d, want 6", got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitCollectives runs every collective on a split comm and checks the
// results are scoped to the subgroup.
func TestSplitCollectives(t *testing.T) {
	const p, groups = 8, 2
	err := Run(p, func(c *Comm) {
		g := c.Rank() / (p / groups)
		sub := c.Split(int64(g), 0)
		n, r := sub.Size(), sub.Rank()
		base := int64(100 * (g + 1))

		if sum := sub.AllReduceSumInt64(base + int64(r)); sum != base*int64(n)+int64(n*(n-1)/2) {
			panic(fmt.Sprintf("AllReduceSumInt64=%d wrong for group %d", sum, g))
		}
		max, sum := sub.AllReduceMaxSum(base + int64(r))
		if max != base+int64(n-1) || sum != base*int64(n)+int64(n*(n-1)/2) {
			panic("AllReduceMaxSum wrong on subgroup")
		}
		if scan := sub.ExclusiveScanInt64(base); scan != base*int64(r) {
			panic("ExclusiveScanInt64 wrong on subgroup")
		}
		xs := []int32{int32(base) + int32(r)}
		all := sub.AllGatherInt32(xs)
		for q := 0; q < n; q++ {
			if len(all[q]) != 1 || all[q][0] != int32(base)+int32(q) {
				panic("AllGatherInt32 wrong on subgroup")
			}
		}
		got := sub.BcastInt32(0, xs)
		if got[0] != int32(base) {
			panic("BcastInt32 wrong on subgroup")
		}
		got64 := sub.BcastInt64(n-1, []int64{base + int64(r)})
		if got64[0] != base+int64(n-1) {
			panic("BcastInt64 wrong on subgroup")
		}
		if g64 := sub.GatherInt64(0, []int64{base + int64(r)}); r == 0 {
			for q := 0; q < n; q++ {
				if g64[q][0] != base+int64(q) {
					panic("GatherInt64 wrong on subgroup")
				}
			}
		} else if g64 != nil {
			panic("GatherInt64 must return nil off root")
		}
		send := make([][]byte, n)
		for q := 0; q < n; q++ {
			send[q] = []byte{byte(g), byte(r), byte(q)}
		}
		recv := sub.AlltoallBytes(send)
		for q := 0; q < n; q++ {
			if !bytes.Equal(recv[q], []byte{byte(g), byte(q), byte(r)}) {
				panic("AlltoallBytes wrong on subgroup")
			}
		}
		views := make([][]int64, n)
		moves := sub.AllGatherMoves([]int64{base + int64(r)}, views, nil)
		for q := 0; q < n; q++ {
			if moves[q] != base+int64(q) {
				panic("AllGatherMoves wrong on subgroup")
			}
		}
		// Boxed collectives on the subgroup.
		sub.Barrier()
		if v := sub.Bcast(0, base).(int64); v != base {
			panic("boxed Bcast wrong on subgroup")
		}
		if all := sub.Gather(0, int64(r)); r == 0 && all[n-1].(int64) != int64(n-1) {
			panic("boxed Gather wrong on subgroup")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitLeaderIdiom builds the node × core shape the hierarchical
// partitioner uses: a node comm per group plus a leader comm spanning one
// rank per node, keyed by node id so leader rank == node id. A value is
// broadcast leader-to-leader and then fanned down each node comm.
func TestSplitLeaderIdiom(t *testing.T) {
	const nodes, cores = 3, 2
	err := Run(nodes*cores, func(c *Comm) {
		nodeID := c.Rank() / cores
		node := c.Split(int64(nodeID), 0)
		lcolor := int64(-1)
		if node.Rank() == 0 {
			lcolor = 0
		}
		leaders := c.Split(lcolor, int64(nodeID))
		if node.Rank() == 0 {
			if leaders == nil || leaders.Size() != nodes || leaders.Rank() != nodeID {
				panic("leader comm must span one rank per node, numbered by node id")
			}
		} else if leaders != nil {
			panic("non-leaders must not join the leader comm")
		}
		plan := []int32{0}
		if leaders != nil {
			plan[0] = int32(42 + leaders.Rank())
			plan = leaders.BcastInt32(0, plan)
		}
		plan = node.BcastInt32(0, plan)
		if plan[0] != 42 {
			panic(fmt.Sprintf("leader fan-out delivered %d, want 42", plan[0]))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitInterleaved interleaves collectives on the parent and on sibling
// subgroups progressing at different rates. Sibling traffic shares the same
// inboxes and overlapping (tag, seq) pairs, so this exercises the
// communicator-identity scoping of the pending queue.
func TestSplitInterleaved(t *testing.T) {
	const p = 6
	err := Run(p, func(c *Comm) {
		g := c.Rank() % 2
		sub := c.Split(int64(g), 0)
		// Group 0 runs 7 rounds while group 1 runs 2 — both starting at the
		// same collSeq — then everyone meets at a world barrier.
		rounds := 7
		if g == 1 {
			rounds = 2
		}
		for i := 0; i < rounds; i++ {
			want := int64(sub.Size()*(10*g+i)) + int64(sub.Size()*(sub.Size()-1)/2)
			if got := sub.AllReduceSumInt64(int64(10*g+i) + int64(sub.Rank())); got != want {
				panic(fmt.Sprintf("group %d round %d: sum %d, want %d", g, i, got, want))
			}
		}
		c.Barrier()
		// Same membership split twice: the two comms have the same rank sets
		// and advance the same (tag, seq) pairs back-to-back; only the
		// communicator identity keeps their messages apart.
		s1 := c.Split(0, 0)
		s2 := c.Split(0, 0)
		for i := 0; i < 3; i++ {
			a := s1.ExclusiveScanInt64(1)
			b := s2.ExclusiveScanInt64(2)
			if a != int64(c.Rank()) || b != int64(2*c.Rank()) {
				panic("sibling comms with identical membership cross-matched")
			}
		}
		if c.AllReduceSumInt64(1) != p {
			panic("parent comm broken after splits")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitSingleton checks the degenerate one-member subgroups.
func TestSplitSingleton(t *testing.T) {
	err := Run(4, func(c *Comm) {
		sub := c.Split(int64(c.Rank()), 0)
		if sub.Size() != 1 || sub.Rank() != 0 {
			panic("distinct colors must give singleton groups")
		}
		if sub.AllReduceSumInt64(int64(c.Rank())) != int64(c.Rank()) {
			panic("singleton sum must be the local value")
		}
		if sub.ExclusiveScanInt64(5) != 0 {
			panic("singleton scan must be 0")
		}
		sub.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitNested splits a split comm and checks numbering composes.
func TestSplitNested(t *testing.T) {
	const p = 8
	err := Run(p, func(c *Comm) {
		half := c.Split(int64(c.Rank()/4), 0)       // two groups of 4
		quad := half.Split(int64(half.Rank()/2), 0) // two groups of 2 inside each
		if quad.Size() != 2 || quad.Rank() != c.Rank()%2 {
			panic("nested split numbering wrong")
		}
		if quad.worldRank(0) != c.Rank()-c.Rank()%2 {
			panic("nested split world mapping wrong")
		}
		if got := quad.AllReduceSumInt64(int64(c.Rank())); got != int64(2*(c.Rank()-c.Rank()%2)+1) {
			panic("nested subgroup sum wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitP2P routes point-to-point traffic through a sub-comm's compact
// numbering alongside parent traffic with the same tag.
func TestSplitP2P(t *testing.T) {
	const p = 4
	err := Run(p, func(c *Comm) {
		sub := c.Split(int64(c.Rank()%2), 0)
		const tag = Tag(3)
		// Ring on the subgroup using sub-comm ranks.
		next := (sub.Rank() + 1) % sub.Size()
		sub.Send(next, tag, 1000+c.Rank())
		// Same tag on the parent comm, seq 0 as well: only the comm identity
		// separates the streams.
		c.Send((c.Rank()+1)%p, tag, c.Rank())
		dataP, fromP := c.Recv(AnySource, tag)
		dataS, fromS := sub.Recv(AnySource, tag)
		if fromP != (c.Rank()+p-1)%p || dataP.(int) != (c.Rank()+p-1)%p {
			panic("parent p2p crossed with sub-comm traffic")
		}
		prev := (sub.Rank() + sub.Size() - 1) % sub.Size()
		if fromS != prev || dataS.(int) != 1000+sub.worldRank(prev) {
			panic("sub-comm p2p delivered the wrong message")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
