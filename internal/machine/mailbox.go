package machine

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fxpar/internal/forkjoin"
)

// mailbox is the unbounded FIFO queue of one ordered (src,dst) pair: the one
// communication mechanism of the machine, the same under every engine. The
// consumed prefix is tracked by a head index (rather than re-slicing) so the
// backing array is reused once drained and a steady-state send/receive cycle
// allocates nothing.
//
// mu guards queue, head and waiter. Because "is a message queued, has the
// sender terminated, register as the waiter" is one critical section on the
// receiver's side (Proc.wait), and "deposit, claim the waiter" is one on the
// sender's (Machine.put, Machine.senderTerminated), a wake-up cannot be
// lost: whichever side locks second sees what the first one did.
type mailbox struct {
	mu    sync.Mutex
	queue []Message
	head  int
	// waiter is the receiver parked on this pair (see Proc.wait), nil if none.
	waiter *Proc
	// sendSeq counts messages sent through this pair, in sender program
	// order. Written only by the sending processor's goroutine, and only
	// while a fault plan or a tracer is installed: it is the deterministic
	// per-pair counter fault decisions are keyed on, and the PairSeq edge
	// identity recorded on EvSend events for skeleton capture.
	sendSeq int64
	// recvSeq counts real (non-duplicate) messages consumed from this pair,
	// in receiver program order. Written only by the receiving processor's
	// goroutine, and only while a tracer is installed: per-pair FIFO order
	// guarantees the k-th consumed message is the k-th sent one, so the
	// counter stamps EvRecv markers with the matching send's PairSeq.
	recvSeq int64
	// dst is the receiving processor, the pair's key in its sender's table.
	// Set before the mailbox is published and never written again.
	dst int
	// buf is the queue's first backing array: a fresh mailbox's queue is
	// buf[:0], so a pair that never holds two messages at once allocates
	// nothing beyond its slab slot.
	buf [1]Message
}

// tryGet removes and returns the next message if one is already deposited.
func (mb *mailbox) tryGet() (Message, bool) {
	mb.mu.Lock()
	if mb.head == len(mb.queue) {
		mb.mu.Unlock()
		return Message{}, false
	}
	msg := mb.queue[mb.head]
	mb.queue[mb.head] = Message{} // release the payload for GC
	mb.head++
	if mb.head == len(mb.queue) {
		mb.queue = mb.queue[:0]
		mb.head = 0
	}
	mb.mu.Unlock()
	return msg, true
}

// put deposits msg into mb and wakes the receiver parked on it, if any. The
// woken receiver resumes at the later of its own clock and the arrival time
// (its clock is stable: it stopped touching it before registering).
func (m *Machine) put(mb *mailbox, msg Message) {
	mb.mu.Lock()
	full := len(mb.queue) == cap(mb.queue)
	mb.queue = append(mb.queue, msg)
	if full {
		// append moved the queue to a new array; a message it copied out of
		// buf must not keep its payload alive from there.
		mb.buf[0] = Message{}
	}
	w := mb.waiter
	mb.waiter = nil
	mb.mu.Unlock()
	if w != nil {
		m.eng.wake(w, max(w.clock, msg.ArriveAt))
	}
}

// wait blocks p until mb holds a deposited message or the sending processor
// src has terminated. It returns true if a message may be available (not
// consumed — the caller decides whether to take it, and loops if a wake-up
// turns out to be the sender's termination) and false if src terminated
// with mb empty, in which case no message can ever arrive. A processor
// waiting on its own empty mailbox is the one sender that can never deposit:
// it fails at once with *DeadlockError, under every engine.
func (p *Proc) wait(mb *mailbox, src int) bool {
	mb.mu.Lock()
	if mb.head < len(mb.queue) {
		mb.mu.Unlock()
		return true
	}
	if src == p.id {
		mb.mu.Unlock()
		panic(&DeadlockError{Proc: p.id, Src: p.id, Blocked: 1})
	}
	if p.m.terminated(src) {
		mb.mu.Unlock()
		return false
	}
	if p.wake == nil {
		// A hand-built Proc (tests) has nobody to park it and nobody to
		// wake it: only the already-deposited case can succeed.
		mb.mu.Unlock()
		panic(fmt.Sprintf("machine: processor %d blocking Recv from %d outside Run", p.id, src))
	}
	mb.waiter = p
	mb.mu.Unlock()
	p.m.eng.park(p, src)
	return true
}

// senderTerminated wakes every receiver parked on a mailbox sourced at src,
// whose SPMD body has terminated (Run stores the termination flag first). A
// receiver that registered before we lock its mailbox is claimed and woken
// here — at its own clock: nothing arrived, it will re-check and fail; one
// that locks after us observes the flag in wait. The walk covers src's
// table, O(out-degree); see Machine.mailboxFor for why a mailbox a receiver
// creates concurrently is either in it or its receiver sees the flag.
func (m *Machine) senderTerminated(src int) {
	slots := m.mailboxesFrom(src)
	for i := range slots {
		mb := slots[i].Load()
		if mb == nil {
			continue
		}
		mb.mu.Lock()
		w := mb.waiter
		mb.waiter = nil
		mb.mu.Unlock()
		if w != nil {
			m.eng.wake(w, w.clock)
		}
	}
}

// pending returns the number of unconsumed messages. Only valid when no
// processor goroutines are running (used by Run's exit check). Transport
// duplicates injected by a fault plan are excluded: a receiver consumes a
// pair's real traffic without necessarily touching trailing duplicates, and
// leftovers of the transport layer are not a protocol bug.
func (mb *mailbox) pending() int {
	n := 0
	for i := mb.head; i < len(mb.queue); i++ {
		if !mb.queue[i].Dup {
			n++
		}
	}
	return n
}

// mailSlabSize caps the mailboxes one slab chunk holds. A processor's chunks
// grow with its out-degree (1, 1, 2, 4, ... up to this cap), so a pair costs
// one slab slot and the allocator is paid once per chunk, not once per pair.
const mailSlabSize = 64

// outbox is one processor's side of the pair directory: every mailbox
// sourced at it, in an open-addressed table keyed by destination. The table
// is the out-edge registry too — senderTerminated and drainReport walk it —
// so a processor's directory state scales with its own peers, not with P.
type outbox struct {
	// tab is the current table, read lock-free; replaced, never resized,
	// under mu when it grows.
	tab atomic.Pointer[pairTable]
	// mu serializes inserts: whoever creates a pair does so under it, so
	// each ordered pair gets exactly one mailbox.
	mu sync.Mutex
	// used is the number of mailboxes in tab; slab is the current chunk new
	// mailboxes are carved from. Both guarded by mu.
	used int
	slab []mailbox
}

// pairTable is a power-of-two, linearly probed table of mailboxes keyed by
// mailbox.dst. Slots only go from nil to a mailbox, and a table is at most
// three quarters full, so a probe always ends at a match or a nil slot.
type pairTable struct {
	slots []atomic.Pointer[mailbox]
	shift uint // 64 - log2(len(slots))
}

// firstTableSlots is the size of a processor's first table: room for six
// peers before the first doubling.
const firstTableSlots = 8

// grow returns a table twice t's size (firstTableSlots for a nil t) holding
// t's mailboxes. t itself is left intact for readers still holding it.
func (t *pairTable) grow() *pairTable {
	size := firstTableSlots
	if t != nil {
		size = 2 * len(t.slots)
	}
	g := &pairTable{
		slots: make([]atomic.Pointer[mailbox], size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
	}
	if t != nil {
		for i := range t.slots {
			if mb := t.slots[i].Load(); mb != nil {
				g.add(mb)
			}
		}
	}
	return g
}

// home is dst's first probe slot: a multiplicative (Fibonacci) hash, since
// peer sets here are strided (module size 64, stage blocks), and the low
// bits of a stride collide under the identity.
func (t *pairTable) home(dst int) int {
	return int((uint64(dst) * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns the mailbox for dst, or nil if t (which may be nil) has none.
func (t *pairTable) find(dst int) *mailbox {
	if t == nil {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.home(dst); ; i = (i + 1) & mask {
		mb := t.slots[i].Load()
		if mb == nil || mb.dst == dst {
			return mb
		}
	}
}

// add stores mb in the first free slot of its probe sequence.
func (t *pairTable) add(mb *mailbox) {
	mask := len(t.slots) - 1
	i := t.home(mb.dst)
	for t.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	t.slots[i].Store(mb)
}

// mailboxFor returns the FIFO from src to dst, creating it on first use.
// The lookup is one atomic load of src's table and a probe; only a miss
// takes src's outbox mutex, probes again and inserts. The sender and the
// receiver may race to create the same pair: the mutex lets exactly one
// instance in, so all messages of an ordered pair flow through one queue and
// the per-pair FIFO guarantee is preserved. A table over ¾ full is replaced
// by one twice its size, published with one atomic store; a reader holding
// the stale table misses the newest pairs and falls through to the mutex.
//
// senderTerminated's walk relies on the insert's ordering. A mailbox the
// sender creates is in its table before it terminates. A receiver creates
// the pair under src's mutex — the slot store — before it can park, and its
// wait then loads src's termination flag; the terminating sender stores the
// flag, then loads its table and slots. Go's atomics are sequentially
// consistent, so either the sender sees the mailbox or the receiver's wait
// sees the flag.
func (m *Machine) mailboxFor(dst, src int) *mailbox {
	o := &m.out[src]
	if mb := o.tab.Load().find(dst); mb != nil {
		return mb
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	t := o.tab.Load()
	if mb := t.find(dst); mb != nil {
		return mb
	}
	if t == nil || 4*(o.used+1) > 3*len(t.slots) {
		t = t.grow()
		o.tab.Store(t)
	}
	if len(o.slab) == 0 {
		o.slab = make([]mailbox, min(max(o.used, 1), mailSlabSize))
	}
	mb := &o.slab[0]
	o.slab = o.slab[1:]
	mb.dst = dst
	mb.queue = mb.buf[:0]
	t.add(mb)
	o.used++
	return mb
}

// mailboxesFrom returns the slots of src's current table, nil slots
// included: every mailbox sourced at src, for the termination broadcast and
// the post-run drain check.
func (m *Machine) mailboxesFrom(src int) []atomic.Pointer[mailbox] {
	if t := m.out[src].tab.Load(); t != nil {
		return t.slots
	}
	return nil
}

// drainReport walks every created mailbox after a run (through the
// per-source tables, so the check is O(active pairs), not O(n^2); source
// ranges are folded in parallel on large machines) and, if any message was
// left unconsumed, formats a diagnostic naming each offending src->dst pair
// with its leftover count (capped at eight pairs so an all-to-all protocol
// bug stays readable). Pairs are reported in (dst, src) order — collection
// order is subrange-, host-schedule- and hash-dependent, so the collected
// pairs are sorted to keep the diagnostic deterministic. Returns "" when the
// machine drained cleanly.
func (m *Machine) drainReport() string {
	const maxPairs = 8
	type leftover struct{ dst, src, count int }
	total := 0
	var pairs []leftover
	var mu sync.Mutex
	forkjoin.For(m.n, initGrain, func(lo, hi int) {
		sub := 0
		var local []leftover
		for src := lo; src < hi; src++ {
			slots := m.mailboxesFrom(src)
			for i := range slots {
				if mb := slots[i].Load(); mb != nil {
					if n := mb.pending(); n > 0 {
						sub += n
						local = append(local, leftover{dst: mb.dst, src: src, count: n})
					}
				}
			}
		}
		if sub > 0 {
			mu.Lock()
			total += sub
			pairs = append(pairs, local...)
			mu.Unlock()
		}
	})
	if total == 0 {
		return ""
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].dst != pairs[j].dst {
			return pairs[i].dst < pairs[j].dst
		}
		return pairs[i].src < pairs[j].src
	})
	var list []string
	for i, p := range pairs {
		if i == maxPairs {
			break
		}
		list = append(list, fmt.Sprintf("%d from %d to %d", p.count, p.src, p.dst))
	}
	msg := fmt.Sprintf("machine: %d unconsumed message(s) at program exit: %s",
		total, strings.Join(list, ", "))
	if len(pairs) > maxPairs {
		msg += fmt.Sprintf(", ... (%d more pair(s))", len(pairs)-maxPairs)
	}
	return msg
}
