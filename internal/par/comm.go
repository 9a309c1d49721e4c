// Package par is the message-passing runtime PARED runs on: an MPI-like
// communicator whose working surface is typed — the reductions, scans,
// gathers, broadcasts and all-to-all of typed.go, its []float64
// point-to-point lane (SendFloat64s, RecvFloat64s) and Barrier. The engine,
// the distributed solve, every command and every example use nothing else.
// A message carries its payload in one of five lanes: a []int32, []int64,
// []float64 or []byte slice header inline, or a boxed `any`.
//
// Every collective is built from three message shapes (collectives.go): a
// fan-in, where each rank but the root posts one message to the root; a
// fan-out, where the root posts one to each other rank; and an exchange,
// where each rank posts one to each other rank. A rooted gather or
// broadcast is one shape, a reduction, scan, Barrier or Split a fan-in to
// rank 0 and a fan-out back, an all-gather or all-to-all one exchange. Apart
// from them only the point-to-point Send/Recv and SendFloat64s/RecvFloat64s
// move a message.
//
// Four entry points box their payload into `any`: Send and Recv here,
// Gather and Bcast in collectives.go, which costs an allocation per message
// and a type assertion per receive. They are the original API and have no
// caller left outside bench/microprobe.go, which times them, and the pared
// tests, where solver_ref_test.go keeps the old solve schedule as a
// reference; they go when those two stop needing them.
//
// Ranks are goroutines in one process; transport is typed Go channels.
// Because of that a deadlock is detected exactly, with no timeout: once every
// rank is blocked or returned and no message is left to deliver, Run returns
// an error naming each rank's pending collective instead of hanging.
// Communicators can be split into sub-communicators (Split), so hierarchical
// algorithms can scope collectives to a node group or to the group leaders.
// The paper ran on an IBM SP / NOW over MPI; this layer preserves the
// programming model — per-rank ownership and explicit communication —
// without the cluster (see DESIGN.md §2, §13).
package par

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"pared/internal/check"
	"pared/internal/kern"
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
	// The payload lanes; the typed ones carry the slice header inline.
	data  any
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

	slot *rankSlot // this rank's inbox, counters and wait record
	got  message   // the message recvMsg last returned (see there)
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
	ep.pending[i] = message{src: consumedSrc} // releases the payload references
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
	slots []rankSlot // per world rank

	// abort is closed by the first rank whose f panics, or by the deadlock
	// check, after it stored the reason in cause; a peer that would block on
	// its inbox (or on a full one it is posting to) then unwinds with an
	// abortPanic instead of waiting for a message that will never come.
	abort     chan struct{}
	abortOnce sync.Once
	cause     error

	// Deadlock detection (see checkDeadlock): mu guards these counts and
	// every slot's wait record, and is taken only when a rank is about to
	// block or has returned.
	mu      sync.Mutex
	blocked int // ranks waiting on an inbox
	done    int // ranks returned

	wg sync.WaitGroup // the rank goroutines of Run
}

// rankSlot is one world rank's share of the world. box is its inbox, read
// by every sender. posted and taken are its message counters, written only
// by the rank itself: posted just before it puts a message into any inbox,
// taken just after it takes one out of its own. They need no atomics
// (checkDeadlock says why). wait says what the rank is blocked on (guarded
// by world.mu). The padding keeps the counters on cache lines of their own
// whatever the slice's alignment.
type rankSlot struct {
	box           chan message
	wait          waitRec
	_             [80]byte
	posted, taken int64
	_             [112]byte
}

// waitState is what a rank is doing, as far as the deadlock check cares.
type waitState uint8

const (
	running waitState = iota
	receiving
	posting // blocked on a full inbox
	returned
)

// waitRec is a rank's wait record: plain fields, formatted only when a
// deadlock is reported, so blocking allocates nothing.
type waitRec struct {
	state waitState
	comm  uint64
	tag   Tag
	seq   int64
	src   int // awaited source (comm-local, or AnySource)
}

// block records that world rank r is about to block, and runs the deadlock
// check.
func (w *world) block(r int, rec waitRec) {
	w.mu.Lock()
	w.slots[r].wait = rec
	w.blocked++
	w.checkDeadlock()
	w.mu.Unlock()
}

// unblock records that world rank r is running again.
func (w *world) unblock(r int) {
	w.mu.Lock()
	w.slots[r].wait.state = running
	w.blocked--
	w.mu.Unlock()
}

// exit records that world rank r has returned (or unwound from a panic).
func (w *world) exit(r int) {
	w.mu.Lock()
	if w.slots[r].wait.state != running {
		w.blocked-- // unwound from a blocking call by an abort
	}
	w.slots[r].wait.state = returned
	w.done++
	w.checkDeadlock()
	w.mu.Unlock()
}

// checkDeadlock runs under mu and aborts the world when no rank is running,
// at least one is blocked, and none can ever run again. Every blocked rank
// registered under mu, and a rank touches its counters only while running
// (posted before it registers, taken after it unregisters), so the counters
// are frozen for the check and mu orders every write to them before this
// read. Σposted == Σtaken then says no message is in any
// inbox or in the hand of a receiver that woke but has not yet unregistered:
// every receiving rank waits on an empty inbox that nobody is left to fill.
// A rank blocked posting rules a report out: its put may already have
// completed and been taken while it waits for mu to unregister, which the
// counters cannot tell from a put still waiting for room. (So a cycle of
// ranks each posting into another's full inbox, over inboxCapacity unread
// messages each, is not reported.) Conversely, the last rank to block or
// return runs this check after every counter has its final value, so every
// other deadlock is reported. A returned rank never reads its inbox again,
// so the check first drains it on the rank's behalf: a message sent to a
// returned rank is lost, not pending, and a rank posting into its full
// inbox gets room.
func (w *world) checkDeadlock() {
	if w.blocked == 0 || w.blocked+w.done < w.size {
		return
	}
	var inFlight int64
	anyPosting := false
	for r := range w.slots {
		sl := &w.slots[r]
		switch sl.wait.state {
		case returned:
			for drained := false; !drained; {
				select {
				case <-sl.box:
					sl.taken++
				default:
					drained = true
				}
			}
		case posting:
			anyPosting = true
		}
		inFlight += sl.posted - sl.taken
	}
	if inFlight != 0 || anyPosting {
		return
	}
	w.abortOnce.Do(func() {
		w.cause = w.deadlockError()
		close(w.abort)
	})
}

// deadlockError names, per world rank, the collective it waits in — its tag
// name, sequence number, awaited source and, on a sub-communicator, the
// comm identity — or that it returned.
func (w *world) deadlockError() error {
	var b strings.Builder
	b.WriteString("par: deadlock: every rank is blocked or returned and no message is in flight")
	for r := range w.slots {
		rec := &w.slots[r].wait
		fmt.Fprintf(&b, "\n  rank %d: ", r)
		if rec.state == returned {
			b.WriteString("returned")
			continue
		}
		from := "any rank"
		if rec.src != AnySource {
			from = fmt.Sprintf("rank %d", rec.src)
		}
		fmt.Fprintf(&b, "waiting in %s seq %d from %s", tagName(rec.tag), rec.seq, from)
		if rec.comm != worldID {
			fmt.Fprintf(&b, " of comm %#x", rec.comm)
		}
	}
	return errors.New(b.String())
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

// worldRank returns the world rank behind this comm's rank r. For the world
// communicator it is the identity.
func (c *Comm) worldRank(r int) int {
	if c.ranks == nil {
		return r
	}
	return int(c.ranks[r])
}

// post stamps a message with this comm's identity and the sender's local rank
// and delivers a copy of it to the inbox of the world rank behind dst.
func (c *Comm) post(dst int, m *message) {
	m.comm = c.id
	m.src = c.rank
	box := c.world.slots[c.worldRank(dst)].box
	c.ep.slot.posted++
	select {
	case box <- *m:
	default:
		// The inbox is full: wait for room, or for the world to abort.
		c.world.block(c.ep.worldRank, waitRec{state: posting})
		select {
		case box <- *m:
		case <-c.world.abort:
			c.aborted()
		}
		c.world.unblock(c.ep.worldRank)
	}
}

// Send delivers data to rank dst with the given tag, boxed (see the package
// comment for who still calls it). Data is not copied; by convention senders
// relinquish ownership of anything they send.
func (c *Comm) Send(dst int, tag Tag, data any) {
	c.mustBeRank(dst, "Send to invalid rank")
	c.post(dst, &message{tag: tag, data: data})
}

// mustBeRank panics with "par: <what> <r>" unless r is a rank of c. Every
// entry point that names a peer checks it first: a send to no rank would
// index past the inboxes, a receive from no rank would wait forever.
func (c *Comm) mustBeRank(r int, what string) {
	if r < 0 || r >= c.size {
		panic(fmt.Sprintf("par: %s %d", what, r))
	}
}

// Recv blocks until a message with the given tag arrives from src
// (or from anyone if src == AnySource), returning the payload and the actual
// source. Messages with non-matching tags are queued, not lost.
func (c *Comm) Recv(src int, tag Tag) (data any, from int) {
	if src != AnySource {
		c.mustBeRank(src, "Recv from invalid rank")
	}
	m := c.recvMsg(src, tag, 0)
	return m.data, m.src
}

// recvMsg blocks until a message on this comm matching (src, tag, seq)
// arrives and returns it whole — the typed collectives read their payload
// lane directly. It returns the endpoint's got slot, not a copy, so the
// message is valid only until this rank's next receive on any comm. Messages
// for sibling communicators of the same rank are parked on the shared
// pending queue, never dropped.
func (c *Comm) recvMsg(src int, tag Tag, seq int64) *message {
	match := func(m *message) bool {
		return m.comm == c.id && m.tag == tag && m.seq == seq && (src == AnySource || m.src == src)
	}
	ep := c.ep
	for i := ep.pendingHead; i < len(ep.pending); i++ {
		m := &ep.pending[i]
		if m.src == consumedSrc {
			continue
		}
		if match(m) {
			ep.got = *m
			ep.consumePending(i)
			return &ep.got
		}
		if check.Enabled {
			c.assertSameCollective(m, tag, seq)
		}
	}
	box := ep.slot.box
	for {
		select {
		case ep.got = <-box:
		default:
			// Nothing queued: block, but wake if a peer has died or the
			// world deadlocked — without this the rank would wait forever.
			c.world.block(ep.worldRank, waitRec{state: receiving, comm: c.id, tag: tag, seq: seq, src: src})
			select {
			case ep.got = <-box:
			case <-c.world.abort:
				c.aborted()
			}
			c.world.unblock(ep.worldRank)
		}
		ep.slot.taken++
		if match(&ep.got) {
			return &ep.got
		}
		if check.Enabled {
			c.assertSameCollective(&ep.got, tag, seq)
		}
		ep.pending = append(ep.pending, ep.got)
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
func (c *Comm) assertSameCollective(m *message, tag Tag, seq int64) {
	if m.comm == c.id && seq != 0 && m.seq == seq && m.tag != tag {
		panic(fmt.Sprintf(
			"paredassert: par: collective mismatch at seq %d: rank %d is receiving %s but rank %d sent %s — every rank must call collectives in the same order",
			seq, c.rank, tagName(tag), m.src, tagName(m.tag)))
	}
}

// inboxCapacity bounds in-flight messages per rank; sends block beyond it.
// Collectives never exceed O(size) outstanding messages.
const inboxCapacity = 4096

// Run executes f on p ranks concurrently and waits for all to finish. A
// panic on any rank aborts the world: ranks blocked in (or later entering) a
// receive unwind instead of waiting for the dead peer, and Run returns an
// error naming the first rank that panicked and its panic value. A deadlock
// aborts it the same way, and Run returns the deadlock report (see
// checkDeadlock). From entry to return, whichever way the ranks end, Run
// holds its p ranks in kern's live-rank count, so a kernel inside a rank gets
// GOMAXPROCS ÷ (ranks live in every Run) workers, and at least one.
func Run(p int, f func(c *Comm)) error {
	if p < 1 {
		return fmt.Errorf("par: need at least one rank, got %d", p)
	}
	kern.AddRanks(p)
	defer kern.AddRanks(-p)
	w := &world{size: p, slots: make([]rankSlot, p), abort: make(chan struct{})}
	for i := range w.slots {
		w.slots[i].box = make(chan message, inboxCapacity)
	}
	for r := 0; r < p; r++ {
		w.wg.Add(1)
		go func(rank int) {
			defer w.wg.Done()
			defer w.exit(rank)
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
			f(&Comm{rank: rank, size: p, world: w, ep: &endpoint{worldRank: rank, slot: &w.slots[rank]}, id: worldID})
		}(r)
	}
	w.wg.Wait()
	return w.cause
}
