package par

import (
	"fmt"
	"sync"
	"testing"
)

// rendezvous is a reusable barrier outside par's transport: it holds every
// rank between two collectives without posting or taking a message, so the
// counters read on either side of a collective count that collective alone.
type rendezvous struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
}

func newRendezvous(n int) *rendezvous {
	r := &rendezvous{n: n}
	r.cond = sync.NewCond(&r.mu)
	return r
}

func (r *rendezvous) wait() {
	r.mu.Lock()
	defer r.mu.Unlock()
	gen := r.gen
	r.count++
	if r.count == r.n {
		r.count = 0
		r.gen++
		r.cond.Broadcast()
		return
	}
	for gen == r.gen {
		r.cond.Wait()
	}
}

// phase is one message shape of a collective's schedule.
type phase int

const (
	fanInPhase    phase = iota // every rank but the root posts one message to the root
	fanOutPhase                // the root posts one message to every other rank
	exchangePhase              // every rank posts one message to every other rank
)

// wantCounts is what one rank of a size-member communicator posts and takes
// in a collective made of the given phases around root.
func wantCounts(rank, size, root int, phases []phase) (posted, taken int64) {
	peers := int64(size - 1)
	for _, ph := range phases {
		switch {
		case ph == exchangePhase:
			posted += peers
			taken += peers
		case rank == root && ph == fanInPhase:
			taken += peers
		case rank == root:
			posted += peers
		case ph == fanInPhase:
			posted++
		default:
			taken++
		}
	}
	return posted, taken
}

// TestMessageSchedule pins every collective's message count: on each rank
// the posted and taken counters move by exactly what its shapes dictate (one
// message per phase on a non-root rank, size-1 at the root, size-1 each way
// per rank in an exchange) and the collective sequence advances by one. It
// runs on the world comm and on a Split child at several sizes, with a
// non-zero root wherever the collective takes one.
func TestMessageSchedule(t *testing.T) {
	type coll struct {
		name   string
		rooted bool
		phases []phase
		call   func(c *Comm, root int)
	}
	colls := []coll{
		{"Barrier", false, []phase{fanInPhase, fanOutPhase}, func(c *Comm, _ int) { c.Barrier() }},
		{"Gather", true, []phase{fanInPhase}, func(c *Comm, root int) { c.Gather(root, c.Rank()) }},
		{"Bcast", true, []phase{fanOutPhase}, func(c *Comm, root int) { c.Bcast(root, 1) }},
		{"GatherInt64", true, []phase{fanInPhase}, func(c *Comm, root int) { c.GatherInt64(root, []int64{1}) }},
		{"BcastInt32", true, []phase{fanOutPhase}, func(c *Comm, root int) { c.BcastInt32(root, []int32{1}) }},
		{"BcastInt64", true, []phase{fanOutPhase}, func(c *Comm, root int) { c.BcastInt64(root, []int64{1}) }},
		{"AllReduceMaxSum", false, []phase{fanInPhase, fanOutPhase}, func(c *Comm, _ int) { c.AllReduceMaxSum(1) }},
		{"AllReduceSumInt64", false, []phase{fanInPhase, fanOutPhase}, func(c *Comm, _ int) { c.AllReduceSumInt64(1) }},
		{"ExclusiveScanInt64", false, []phase{fanInPhase, fanOutPhase}, func(c *Comm, _ int) { c.ExclusiveScanInt64(1) }},
		{"AllReduceSumFloat64s", false, []phase{fanInPhase, fanOutPhase}, func(c *Comm, _ int) { c.AllReduceSumFloat64s([]float64{1, 2}) }},
		{"AllGatherInt32", false, []phase{exchangePhase}, func(c *Comm, _ int) { c.AllGatherInt32([]int32{1}) }},
		{"AllGatherInt64", false, []phase{exchangePhase}, func(c *Comm, _ int) { c.AllGatherInt64([]int64{1}) }},
		{"AllGatherMoves", false, []phase{exchangePhase}, func(c *Comm, _ int) {
			c.AllGatherMoves([]int64{1}, make([][]int64, c.Size()), nil)
		}},
		{"AlltoallBytes", false, []phase{exchangePhase}, func(c *Comm, _ int) { c.AlltoallBytes(make([][]byte, c.Size())) }},
		{"Split", false, []phase{fanInPhase, fanOutPhase}, func(c *Comm, _ int) { c.Split(int64(c.Rank()%2), 0) }},
	}
	for _, p := range []int{1, 2, 3, 8} {
		meet := newRendezvous(p)
		err := Run(p, func(world *Comm) {
			child := world.Split(int64(world.Rank()%2), int64(-world.Rank()))
			for _, cm := range []struct {
				where string
				c     *Comm
			}{{"world", world}, {"split", child}} {
				c := cm.c
				for _, k := range colls {
					root := 0
					if k.rooted {
						root = c.Size() - 1
					}
					slot := c.ep.slot
					meet.wait()
					posted, taken, seq := slot.posted, slot.taken, c.CollectiveSeq()
					k.call(c, root)
					meet.wait()
					gotP, gotT := slot.posted-posted, slot.taken-taken
					wantP, wantT := wantCounts(c.Rank(), c.Size(), root, k.phases)
					if gotP != wantP || gotT != wantT {
						panic(fmt.Sprintf("p=%d %s %s root %d: rank %d of %d posted %d, took %d; want %d, %d",
							p, cm.where, k.name, root, c.Rank(), c.Size(), gotP, gotT, wantP, wantT))
					}
					if d := c.CollectiveSeq() - seq; d != 1 {
						panic(fmt.Sprintf("p=%d %s %s: sequence advanced by %d, want 1", p, cm.where, k.name, d))
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
