// Package par is the message-passing runtime PARED runs on: an MPI-like
// communicator whose working surface is typed — the reductions, scans,
// gathers, broadcasts and all-to-all of typed.go, its []float64
// point-to-point lane (SendFloat64s, RecvFloat64s) and Barrier. The engine,
// the distributed solve, every command and every example use nothing else.
// Four entry points still box their payload into `any`: Send and Recv here,
// Gather and Bcast in collectives.go. They are the original API and have no
// caller left outside bench/microprobe.go, which times them, and the pared
// tests, where solver_ref_test.go keeps the old solve schedule as a
// reference; they go when those two stop needing them.
// Ranks are goroutines in one process; transport is typed Go channels.
// Communicators can be split into sub-communicators (Split), so hierarchical
// algorithms can scope collectives to a node group or to the group leaders.
// The paper ran on an IBM SP / NOW over MPI; this layer preserves the
// programming model — per-rank ownership and explicit communication —
// without the cluster (see DESIGN.md §2, §13).
package par

import (
	"fmt"
	"sync"

	"pared/internal/check"
)

// Tag distinguishes message streams between the same pair of ranks.
type Tag int

// AnySource matches messages from any rank in Recv.
const AnySource = -1

type message struct {
	comm uint64 // communicator identity; sub-comms share the rank's inbox
	src  int    // sender's rank within that communicator
	tag  Tag
	seq  int64 // collective sequence number (0 for point-to-point traffic)
	data any
	// Typed payload lanes for the hot collectives (see typed.go): carrying
	// the slice header inline avoids boxing it into data.
	i32   []int32
	i64   []int64
	f64   []float64
	bytes []byte
}

// worldID is the communicator identity of the top-level comm created by Run.
// Split derives child identities from it deterministically (see split.go).
const worldID uint64 = 0

// endpoint is the transport state of one rank goroutine, shared by every
// communicator that rank belongs to. The sharing is what makes Split safe on
// the existing transport: parent and child comms deliver into the same
// physical inbox, so a Recv on one comm that dequeues a message belonging to
// another must park it where the other comm's Recv will find it — a single
// pending queue per rank, with matching scoped by communicator identity.
type endpoint struct {
	worldRank int
	// pending holds messages received from the transport but not yet matched
	// by a Recv (out-of-order tags or other communicators). Matched entries
	// are tombstoned in place (src = consumedSrc) instead of spliced out, so
	// a removal never copies the queue tail; pendingHead skips the consumed
	// prefix, which makes the common FIFO drain O(1) per Recv, and the queue
	// compacts when tombstones outnumber live entries, which keeps scans
	// amortized O(live).
	pending     []message
	pendingHead int // first slot that may be live
	pendingDead int // tombstones at or after pendingHead
}

// Comm is one rank's endpoint of a communicator — the world communicator
// created by Run, or a sub-communicator created by Split. All comms of one
// rank share the endpoint (the physical inbox and pending queue); each comm
// scopes its traffic with its identity and translates its compact rank
// numbering to world ranks when posting.
type Comm struct {
	rank  int
	size  int
	world *world
	ep    *endpoint
	id    uint64
	// ranks maps this comm's rank numbering to world ranks; nil means the
	// identity mapping (the world comm).
	ranks []int32
	// collSeq counts collective operations on this comm; member ranks stay in
	// step because every member must call the comm's collectives in the same
	// order. Independent comms advance independently.
	collSeq int64
	// splitSeq counts Split calls on this comm; it feeds the deterministic
	// child-identity derivation.
	splitSeq int64
	// sc holds the reuse-distance-safe scratch for the scalar typed
	// collectives (see typed.go).
	sc scalarScratch
}

// consumedSrc marks a pending slot whose message was already delivered;
// real sources are always ≥ 0.
const consumedSrc = -2

// consumePending tombstones slot i and maintains the head/compaction
// invariants.
func (ep *endpoint) consumePending(i int) {
	ep.pending[i].data = nil // release the payload references
	ep.pending[i].i32 = nil
	ep.pending[i].i64 = nil
	ep.pending[i].f64 = nil
	ep.pending[i].bytes = nil
	ep.pending[i].src = consumedSrc
	ep.pendingDead++
	if i == ep.pendingHead {
		// Advance past the consumed prefix (the FIFO fast path).
		for ep.pendingHead < len(ep.pending) && ep.pending[ep.pendingHead].src == consumedSrc {
			ep.pendingHead++
			ep.pendingDead--
		}
		if ep.pendingHead == len(ep.pending) {
			ep.pending = ep.pending[:0]
			ep.pendingHead = 0
			ep.pendingDead = 0
			return
		}
	}
	// Out-of-order consumption: compact once tombstones dominate, so each
	// surviving entry is copied at most O(1) times per generation.
	if live := len(ep.pending) - ep.pendingHead - ep.pendingDead; ep.pendingDead > 16 && ep.pendingDead >= live {
		w := 0
		for r := ep.pendingHead; r < len(ep.pending); r++ {
			if ep.pending[r].src != consumedSrc {
				ep.pending[w] = ep.pending[r]
				w++
			}
		}
		ep.pending = ep.pending[:w]
		ep.pendingHead = 0
		ep.pendingDead = 0
	}
}

type world struct {
	size  int
	boxes []chan message // one inbox per world rank

	// abort is closed by the first rank whose f panics, after it stored the
	// panic in cause; a peer that would block on its inbox (or on a full one
	// it is posting to) then unwinds with an abortPanic instead of waiting
	// for a message that will never come.
	abort     chan struct{}
	abortOnce sync.Once
	cause     error

	wg sync.WaitGroup // the rank goroutines of Run
}

// abortPanic is what a surviving rank panics with when it stops because a
// peer died. Run recovers it and reports the peer's panic, not this one.
type abortPanic struct{ error }

// aborted unwinds a rank that found the world aborted while blocked.
func (c *Comm) aborted() {
	panic(abortPanic{fmt.Errorf("par: rank %d stopped: %w", c.ep.worldRank, c.world.cause)})
}

// Rank returns this processor's rank in [0, Size) within this communicator.
func (c *Comm) Rank() int { return c.rank }

// CollectiveSeq returns how many collectives this rank has entered on this
// communicator (Split included) — the same number on every member between
// collectives, so a difference of two readings counts the collectives of the
// code in between.
func (c *Comm) CollectiveSeq() int64 { return c.collSeq }

// Size returns the number of processors in this communicator.
func (c *Comm) Size() int { return c.size }

// WorldRank returns the world rank behind this comm's rank r. For the world
// communicator it is the identity.
func (c *Comm) WorldRank(r int) int {
	if c.ranks == nil {
		return r
	}
	return int(c.ranks[r])
}

// post stamps a message with this comm's identity and the sender's local rank
// and delivers it to the inbox of the world rank behind dst.
func (c *Comm) post(dst int, m message) {
	m.comm = c.id
	m.src = c.rank
	box := c.world.boxes[c.WorldRank(dst)]
	select {
	case box <- m:
	default:
		// The inbox is full: wait for room, or for the world to abort.
		select {
		case box <- m:
		case <-c.world.abort:
			c.aborted()
		}
	}
}

// Send delivers data to rank dst with the given tag, boxed (see the package
// comment for who still calls it). Data is not copied; by convention senders
// relinquish ownership of anything they send.
func (c *Comm) Send(dst int, tag Tag, data any) {
	if dst < 0 || dst >= c.size {
		panic(fmt.Sprintf("par: Send to invalid rank %d", dst))
	}
	c.post(dst, message{tag: tag, data: data})
}

// sendSeq sends a collective message stamped with a sequence number, so that
// back-to-back collectives of the same kind cannot cross-match.
func (c *Comm) sendSeq(dst int, tag Tag, seq int64, data any) {
	c.post(dst, message{tag: tag, seq: seq, data: data})
}

// Recv blocks until a message with the given tag arrives from src
// (or from anyone if src == AnySource), returning the payload and the actual
// source. Messages with non-matching tags are queued, not lost.
func (c *Comm) Recv(src int, tag Tag) (data any, from int) {
	return c.recvSeq(src, tag, 0)
}

func (c *Comm) recvSeq(src int, tag Tag, seq int64) (data any, from int) {
	m := c.recvMsg(src, tag, seq)
	return m.data, m.src
}

// recvMsg blocks until a message on this comm matching (src, tag, seq)
// arrives and returns it whole — the typed collectives read their payload
// lane directly. Messages for sibling communicators of the same rank are
// parked on the shared pending queue, never dropped.
func (c *Comm) recvMsg(src int, tag Tag, seq int64) message {
	match := func(m message) bool {
		return m.comm == c.id && m.tag == tag && m.seq == seq && (src == AnySource || m.src == src)
	}
	ep := c.ep
	for i := ep.pendingHead; i < len(ep.pending); i++ {
		m := ep.pending[i]
		if m.src == consumedSrc {
			continue
		}
		if match(m) {
			ep.consumePending(i)
			return m
		}
		if check.Enabled {
			c.assertSameCollective(m, tag, seq)
		}
	}
	box := c.world.boxes[ep.worldRank]
	for {
		var m message
		select {
		case m = <-box:
		default:
			// Nothing queued: block, but wake if a peer has died — without
			// this a panicking rank would leave the others here forever.
			select {
			case m = <-box:
			case <-c.world.abort:
				c.aborted()
			}
		}
		if match(m) {
			return m
		}
		if check.Enabled {
			c.assertSameCollective(m, tag, seq)
		}
		ep.pending = append(ep.pending, m)
	}
}

// assertSameCollective panics when a message on THIS communicator for the
// collective sequence number currently being received carries a different
// collective tag: some member rank entered a different collective at this
// step. Every tag a rank can legitimately receive at a given sequence number
// is determined by the collective and the rank's role in it, so a same-seq
// tag mismatch always means the MPI-style ordering contract was broken —
// which would otherwise surface as a silent deadlock. Messages belonging to
// sibling communicators are exempt: independent comms interleave freely.
// Called only under check.Enabled.
func (c *Comm) assertSameCollective(m message, tag Tag, seq int64) {
	if m.comm == c.id && seq != 0 && m.seq == seq && m.tag != tag {
		panic(fmt.Sprintf(
			"paredassert: par: collective mismatch at seq %d: rank %d is receiving tag %d but rank %d sent tag %d — every rank must call collectives in the same order",
			seq, c.rank, tag, m.src, m.tag))
	}
}

// inboxCapacity bounds in-flight messages per rank; sends block beyond it.
// Collectives never exceed O(size) outstanding messages.
const inboxCapacity = 4096

// Run executes f on p ranks concurrently and waits for all to finish. A
// panic on any rank aborts the world: ranks blocked in (or later entering) a
// receive unwind instead of waiting for the dead peer, and Run returns an
// error naming the first rank that panicked and its panic value.
func Run(p int, f func(c *Comm)) error {
	if p < 1 {
		return fmt.Errorf("par: need at least one rank, got %d", p)
	}
	w := &world{size: p, boxes: make([]chan message, p), abort: make(chan struct{})}
	for i := range w.boxes {
		w.boxes[i] = make(chan message, inboxCapacity)
	}
	for r := 0; r < p; r++ {
		w.wg.Add(1)
		go func(rank int) {
			defer w.wg.Done()
			defer func() {
				x := recover()
				if x == nil {
					return
				}
				if _, ok := x.(abortPanic); ok {
					return // stopped because a peer died; that peer reports
				}
				w.abortOnce.Do(func() {
					w.cause = fmt.Errorf("par: rank %d panicked: %v", rank, x)
					close(w.abort)
				})
			}()
			f(&Comm{rank: rank, size: p, world: w, ep: &endpoint{worldRank: rank}, id: worldID})
		}(r)
	}
	w.wg.Wait()
	return w.cause
}
