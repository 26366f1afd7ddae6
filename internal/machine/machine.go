// Package machine implements the simulated distributed-memory multicomputer
// that stands in for the paper's 64-node Intel Paragon.
//
// Each processor is a goroutine with a private virtual clock. Processors
// exchange messages over per-ordered-pair FIFO mailboxes. A message carries
// the virtual time at which it becomes available at the receiver
// (send-injection time plus alpha + bytes*beta from the cost model); the
// receiver's clock advances to at least that time when it receives. Compute
// phases advance the local clock by flops/FlopRate. Because clocks only move
// through these rules, every virtual-time result is deterministic and
// independent of how the host schedules the goroutines.
//
// This mirrors the Fx communication substrate described in Section 4 of the
// paper: "direct deposit of data by a sender to a receiver's memory space" —
// sends never block, receives block until the datum has been deposited.
package machine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fxpar/internal/forkjoin"
	"fxpar/internal/sim"
)

// Message is a unit of point-to-point communication.
type Message struct {
	// Src is the sending processor's physical id.
	Src int
	// Data is the payload. The machine layer never copies it; senders must
	// not mutate a payload after sending (higher layers copy when needed).
	Data any
	// Bytes is the payload size used for cost accounting.
	Bytes int
	// ArriveAt is the virtual time at which the message is available at the
	// receiver.
	ArriveAt float64
	// Dup marks a transport-level duplicate injected by a fault plan. The
	// receive path discards duplicates (recording an EvFault marker) instead
	// of delivering them to the application.
	Dup bool
}

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
	mb.queue = append(mb.queue, msg)
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
// with mb empty, in which case no message can ever arrive.
func (p *Proc) wait(mb *mailbox, src int) bool {
	mb.mu.Lock()
	if mb.head < len(mb.queue) {
		mb.mu.Unlock()
		return true
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
// that locks after us observes the flag in wait. The per-source registry
// makes the walk O(out-degree); a mailbox created by a receiver
// concurrently with this termination is either in the snapshot or
// registered after it, in which case that receiver's wait sees the flag
// before parking (see Machine.mailboxFor).
func (m *Machine) senderTerminated(src int) {
	for _, e := range m.mailboxesFrom(src) {
		e.mb.mu.Lock()
		w := e.mb.waiter
		e.mb.waiter = nil
		e.mb.mu.Unlock()
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

// EventKind classifies a traced virtual-time interval.
type EventKind uint8

const (
	// EvCompute is local computation (Compute, Elapse, CopyBytes).
	EvCompute EventKind = iota
	// EvSend is message injection overhead.
	EvSend
	// EvWait is time spent blocked for a message that had not arrived.
	EvWait
	// EvIO is input/output time.
	EvIO
	// EvRecv is a zero-duration marker recorded at the instant a message is
	// consumed, carrying the peer, byte count and PairSeq. Together with
	// EvSend events it lets trace analysis reconstruct the exact send->recv
	// dependency edges of a run (any time spent blocked is reported
	// separately as the EvWait interval that precedes the marker).
	EvRecv
	// EvSpanBegin and EvSpanEnd are zero-duration markers bracketing a
	// named span opened with Proc.BeginSpan/EndSpan. Spans on one processor
	// follow strict stack discipline, so consumers can rebuild the nesting
	// with a simple stack walk over the per-processor event sequence.
	EvSpanBegin
	EvSpanEnd
	// EvFault is a zero-duration marker recording an injected perturbation;
	// Label names it (FaultDelay, FaultDup, FaultDupDrop, FaultSlow,
	// FaultDeath) and Peer carries the other processor where one applies.
	EvFault
	// EvRetry is a zero-duration marker for one transport-level
	// retransmission toward Peer, recorded on the send path.
	EvRetry
)

func (k EventKind) String() string {
	switch k {
	case EvCompute:
		return "compute"
	case EvSend:
		return "send"
	case EvWait:
		return "wait"
	case EvIO:
		return "io"
	case EvRecv:
		return "recv"
	case EvSpanBegin:
		return "span-begin"
	case EvSpanEnd:
		return "span-end"
	case EvFault:
		return "fault"
	case EvRetry:
		return "retry"
	}
	return "?"
}

// Event is one virtual-time interval (or instant marker) on one processor.
type Event struct {
	Proc  int
	Kind  EventKind
	Start float64
	End   float64
	// Seq is the per-processor record sequence number (1, 2, ...). Each
	// processor records events in program order, so sorting a processor's
	// events by Seq reproduces the exact order of operations even when
	// several events share a virtual timestamp. It is assigned only while a
	// tracer is installed.
	Seq int64
	// Peer is the other processor of a send/recv/wait event (-1 when the
	// event has no peer).
	Peer int
	// Bytes is the payload size of a send/recv event or the byte count of
	// an IO event (0 otherwise).
	Bytes int
	// Label names the span for EvSpanBegin/EvSpanEnd events ("" otherwise).
	Label string
	// Depth is the span nesting depth at which a span event was recorded
	// (0 = outermost). Zero for non-span events.
	Depth int
	// Dur is the charged duration exactly as the cost model produced it,
	// before the clock addition rounds: End == fl(Start + Dur) where fl is
	// one float64 rounding. It is recorded for events that advance the clock
	// by an increment (compute, io, send overhead) so skeleton
	// replay (internal/skeleton) can reproduce the machine's clock
	// arithmetic bitwise; it is zero for instant markers and for EvWait,
	// whose End is an absolute assignment (the message's arrival time).
	Dur float64
	// Wire is the full wire latency charged to the message of an EvSend
	// event: alpha + bytes*beta, plus any mesh per-hop cost and any
	// fault-injected delay. The message's arrival time at the receiver is
	// End + Wire (one rounding). Zero for all other kinds.
	Wire float64
	// PairSeq is the per-ordered-pair FIFO sequence number of the message an
	// EvSend or EvRecv event refers to: the k-th message sent through the
	// (src,dst) pair is consumed by the k-th real receive on it, so
	// (src, dst, PairSeq) is a stable identity for the dependence edge, used
	// by skeleton capture and critical-path analysis and assigned only while
	// a tracer is installed.
	PairSeq int64
}

// Tracer receives the events of a traced run. Record is called from
// processor goroutines concurrently; implementations must be safe for that.
// Event *values* are virtual times, so trace content is deterministic even
// though arrival order is not.
type Tracer interface {
	Record(Event)
}

// EventSampler decides, per event, whether a traced run records it. The
// machine consults it (when installed) on every emit with the event's
// identity — (proc, seq, kind) — before building the Event value, so a
// rejected event costs one virtual-time-free callback and nothing else.
// Implementations must be pure functions of their inputs plus their own
// immutable configuration (they are called from processor goroutines
// concurrently, in host-schedule-dependent order) so that the set of kept
// events is byte-identical across engines and host parallelism; see
// internal/trace.Sampler for the canonical counter-based implementation.
type EventSampler interface {
	SampleEvent(proc int, seq int64, kind EventKind) bool
}

// denseMailProcs is the largest machine that keeps the O(n^2) dense mailbox
// directory (a flat pointer slice, one atomic load per lookup). Above it the
// machine switches to the sharded sparse directory: a 65536-processor dense
// directory alone would be ~34 GB, while real programs touch O(active pairs).
const denseMailProcs = 2048

// mailDirShards is the shard count of the sparse mailbox directory. A power
// of two so the shard index is a mask of the destination processor.
const mailDirShards = 256

// mailSlabSize is the number of mailboxes one sparse-directory slab chunk
// holds. Large machines materialize millions of pairs; carving them out of
// per-shard slabs amortizes the allocator to one malloc per mailSlabSize
// pairs instead of one each, which is most of what keeps allocs/proc flat
// as P grows.
const mailSlabSize = 64

// mailShard is one shard of the sparse mailbox directory, keyed on the
// flattened pair index dst*n+src. slab is the shard's current allocation
// chunk; mailboxes are handed out from it sequentially (under mu) and are
// never moved or freed — the directory map pins them.
type mailShard struct {
	mu   sync.Mutex
	m    map[int64]*mailbox
	slab []mailbox
}

// srcList registers every mailbox sourced at one processor, appended at
// mailbox creation. It is what lets senderTerminated and drainReport touch
// only the pairs that exist — O(out-degree) — instead of scanning all n
// destinations (O(n) per termination, O(n^2) per run, which dominated large
// machines).
type srcList struct {
	mu   sync.Mutex
	dsts []srcMailbox
}

type srcMailbox struct {
	dst int
	mb  *mailbox
}

// Machine is a simulated multicomputer with a fixed number of processors.
type Machine struct {
	n       int
	cost    sim.CostModel
	tracer  Tracer
	sampler EventSampler
	eng     Engine
	faults  FaultPlan
	// hops returns the network distance between two physical processors;
	// nil models a flat (distance-free) network.
	hops func(a, b int) int
	// mail[dst*n+src] is the FIFO from src to dst, allocated lazily on the
	// first send or receive touching the pair: a machine of n processors has
	// n^2 ordered pairs, but real programs use a tiny fraction of them, and
	// eager allocation made New(1024, ...) materialize ~1M mailboxes. nil on
	// machines larger than denseMailProcs, which use mailSparse instead.
	mail []atomic.Pointer[mailbox]
	// mailSparse is the sharded sparse pair directory of large machines:
	// memory is O(active pairs), lookups take one shard mutex (amortized
	// away by the per-Proc mailbox cache on the hot path).
	mailSparse []mailShard
	// bySrc[src] lists every mailbox sourced at src, in creation order.
	bySrc []srcList
	// term[i]/termAt[i] record whether and when processor i's SPMD body
	// terminated in the current Run, so a receiver blocked on it can fail
	// with DeadSenderError instead of waiting forever.
	term   []atomic.Uint32
	termAt []float64
}

// mailboxFor returns the FIFO from src to dst, creating it on first use.
// The sender and the receiver may race to create the same pair's mailbox;
// CompareAndSwap (dense directory) or the shard mutex (sparse directory)
// lets exactly one instance win, so all messages of an ordered pair flow
// through one queue and the per-pair FIFO guarantee is preserved.
//
// Every created mailbox is registered in bySrc[src] before mailboxFor
// returns. That ordering is what senderTerminated's registry walk relies
// on: a mailbox created by the sender is registered on the sender's own
// program path (before its termination), and a mailbox created by the
// receiver is registered — under bySrc[src].mu — before the receiver can
// park on it, so the terminating sender either snapshots it (registration
// first) or the receiver's wait observes the termination flag (snapshot
// first: the flag store precedes the snapshot's mutex critical section,
// which precedes the receiver's registration under the same mutex).
func (m *Machine) mailboxFor(dst, src int) *mailbox {
	if m.mail != nil {
		slot := &m.mail[dst*m.n+src]
		if mb := slot.Load(); mb != nil {
			return mb
		}
		mb := &mailbox{}
		if slot.CompareAndSwap(nil, mb) {
			m.registerMailbox(src, dst, mb)
			return mb
		}
		return slot.Load()
	}
	key := int64(dst)*int64(m.n) + int64(src)
	sh := &m.mailSparse[dst&(mailDirShards-1)]
	sh.mu.Lock()
	if mb, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		return mb
	}
	if len(sh.slab) == 0 {
		sh.slab = make([]mailbox, mailSlabSize)
	}
	mb := &sh.slab[0]
	sh.slab = sh.slab[1:]
	if sh.m == nil {
		sh.m = make(map[int64]*mailbox)
	}
	sh.m[key] = mb
	sh.mu.Unlock()
	m.registerMailbox(src, dst, mb)
	return mb
}

// registerMailbox appends a freshly created mailbox to its source's list.
func (m *Machine) registerMailbox(src, dst int, mb *mailbox) {
	l := &m.bySrc[src]
	l.mu.Lock()
	l.dsts = append(l.dsts, srcMailbox{dst: dst, mb: mb})
	l.mu.Unlock()
}

// mailboxesFrom snapshots the mailboxes sourced at src, for termination
// broadcast and post-run drain checks. The copy keeps the per-src mutex
// critical section free of nested mailbox locks.
func (m *Machine) mailboxesFrom(src int) []srcMailbox {
	l := &m.bySrc[src]
	l.mu.Lock()
	out := append([]srcMailbox(nil), l.dsts...)
	l.mu.Unlock()
	return out
}

// Hops returns the network distance between two processors (0 on a flat
// network).
func (m *Machine) Hops(a, b int) int {
	if m.hops == nil {
		return 0
	}
	return m.hops(a, b)
}

// SetTracer installs a tracer; it must be called before Run. A nil tracer
// (the default) disables tracing.
func (m *Machine) SetTracer(t Tracer) { m.tracer = t }

// SetSampler installs an event sampler consulted on every traced emit; it
// must be called before Run. A nil sampler (the default) keeps every event.
// Sampling only filters which events reach the tracer — per-processor
// sequence numbers and per-pair FIFO counters advance for every event,
// kept or dropped, so the identities sampling is keyed on (and fault-plan
// decisions) are unchanged by the rate. With no tracer installed the
// sampler is never consulted.
func (m *Machine) SetSampler(s EventSampler) { m.sampler = s }

// SetEngine installs the execution engine Run will use; it must be called
// before Run. A nil engine is a no-op, so call sites can thread an optional
// engine without checking: m.SetEngine(cfg.Engine) leaves the default in
// place when no override was configured.
func (m *Machine) SetEngine(e Engine) {
	if e != nil {
		m.eng = e
	}
}

// Engine returns the machine's execution engine.
func (m *Machine) Engine() Engine { return m.eng }

// New creates a machine with n processors and the given cost model.
// It panics if n < 1 or the cost model is invalid, since a machine is
// construction-time configuration, not runtime input.
func New(n int, cost sim.CostModel) *Machine {
	if n < 1 {
		panic(fmt.Sprintf("machine: need at least 1 processor, got %d", n))
	}
	if err := cost.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		n: n, cost: cost, eng: defaultEngine,
		bySrc:  make([]srcList, n),
		term:   make([]atomic.Uint32, n),
		termAt: make([]float64, n),
	}
	if n <= denseMailProcs {
		m.mail = make([]atomic.Pointer[mailbox], n*n)
	} else {
		m.mailSparse = make([]mailShard, mailDirShards)
	}
	return m
}

// NewMesh creates a machine whose cols*rows processors are arranged in a 2D
// mesh (processor id i at column i%cols, row i/cols, like the Intel
// Paragon): each message additionally pays cost.PerHop per Manhattan hop
// between sender and receiver. With PerHop > 0, the physical placement of
// processor subgroups matters — the implementation freedom Section 4 notes
// ("the implementation is free to choose any such legal assignment" and
// tries to minimize communication overheads).
func NewMesh(cols, rows int, cost sim.CostModel) *Machine {
	if cols < 1 || rows < 1 {
		panic(fmt.Sprintf("machine: invalid mesh %dx%d", cols, rows))
	}
	m := New(cols*rows, cost)
	m.hops = func(a, b int) int {
		ax, ay := a%cols, a/cols
		bx, by := b%cols, b/cols
		dx, dy := ax-bx, ay-by
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	}
	return m
}

// N returns the number of processors.
func (m *Machine) N() int { return m.n }

// Cost returns the machine's cost model.
func (m *Machine) Cost() sim.CostModel { return m.cost }

// Proc is the per-processor handle available to SPMD code. It must only be
// used from the goroutine the machine created it on.
type Proc struct {
	m     *Machine
	id    int
	clock float64
	busy  float64
	idle  float64
	sent  int64
	recvd int64
	bytes int64
	// wake is the processor's parking spot, made by Run: Engine.park receives
	// from it and Engine.wake (or a coop slot grant) sends. Buffered so a
	// wake-up that arrives before the processor parks is not lost; each
	// registration as a mailbox's waiter is claimed, and so woken, exactly
	// once, so one slot suffices. nil on a hand-built Proc (some tests).
	wake chan struct{}
	// cp is the coop engine's scheduling state for this processor; nil under
	// other engines.
	cp *coopProc
	// seq numbers every recorded event; spans is the stack of open span
	// labels. Both are touched only while a tracer is installed, so the
	// untraced hot path stays allocation-free.
	seq   int64
	spans []string
	// mbFew/mbMore memoize sparse-directory lookups for this processor's own
	// pairs, so steady-state sends and receives on a large machine skip the
	// shard mutex. The first mbFewSize distinct pairs live in the inline
	// array (most processors of a structured program talk to O(1) peers:
	// butterfly partners, stage neighbours); only a processor that touches
	// more pairs — a scatter root, say — allocates the overflow map. The
	// previous per-proc map cost one allocation plus bucket memory on every
	// processor of a large machine; the array costs neither. Unused on dense
	// machines.
	mbFew  [mbFewSize]pairCacheEnt
	mbMore map[int64]*mailbox
	// slow (> 1) multiplies all local time, and deathAt (> 0) is the virtual
	// time this processor fails. Both are set by Run from the fault plan and
	// stay zero — inert single-compare guards — on healthy machines.
	slow    float64
	deathAt float64
}

// ID returns the physical processor id in [0, N).
func (p *Proc) ID() int { return p.id }

// Machine returns the machine this processor belongs to.
func (p *Proc) Machine() *Machine { return p.m }

// Now returns the processor's current virtual time in seconds.
func (p *Proc) Now() float64 { return p.clock }

// BusyTime returns accumulated compute (non-idle) virtual time.
func (p *Proc) BusyTime() float64 { return p.busy }

// IdleTime returns accumulated virtual time spent waiting for messages.
func (p *Proc) IdleTime() float64 { return p.idle }

// MsgsSent returns the number of messages this processor has sent.
func (p *Proc) MsgsSent() int64 { return p.sent }

// BytesSent returns the number of payload bytes this processor has sent.
func (p *Proc) BytesSent() int64 { return p.bytes }

// Tracing reports whether a tracer is installed. Callers that must build
// labels or other trace-only values check it first so the untraced path
// does no work (and no allocation).
func (p *Proc) Tracing() bool { return p.m.tracer != nil }

// mbFewSize is the inline pair-cache capacity of a Proc. Sized for the
// reproduced apps' structured communication: log2(module size) butterfly
// partners plus a scatter source and a reduction peer all fit.
const mbFewSize = 8

// pairCacheEnt is one inline pair-cache entry; mb is nil while unused
// (pair key 0 is valid, so presence is keyed on the pointer).
type pairCacheEnt struct {
	key int64
	mb  *mailbox
}

// mailbox resolves the FIFO for an ordered pair on this processor's hot
// path: the dense directory's atomic load on small machines, the per-Proc
// cache (falling back to the sharded directory) on large ones.
func (p *Proc) mailbox(dst, src int) *mailbox {
	m := p.m
	if m.mail != nil {
		return m.mailboxFor(dst, src)
	}
	key := int64(dst)*int64(m.n) + int64(src)
	for i := range p.mbFew {
		e := &p.mbFew[i]
		if e.mb == nil {
			// First miss on a fresh slot: resolve and cache inline.
			e.key = key
			e.mb = m.mailboxFor(dst, src)
			return e.mb
		}
		if e.key == key {
			return e.mb
		}
	}
	if mb, ok := p.mbMore[key]; ok {
		return mb
	}
	mb := m.mailboxFor(dst, src)
	if p.mbMore == nil {
		p.mbMore = make(map[int64]*mailbox)
	}
	p.mbMore[key] = mb
	return mb
}

// keep advances the per-processor event sequence and consults the sampler.
// The sequence advances for every event — kept or dropped — so the
// (proc, seq) identity a sampling decision is keyed on is independent of
// the sampling rate; a sampled trace has gaps in Seq where events were
// dropped, but every recorded Seq means the same operation it would in the
// unsampled trace. Callers have already checked that a tracer is installed.
func (p *Proc) keep(kind EventKind) (int64, bool) {
	p.seq++
	if s := p.m.sampler; s != nil && !s.SampleEvent(p.id, p.seq, kind) {
		return p.seq, false
	}
	return p.seq, true
}

// trace records an interval of duration t starting at the current clock if
// the machine has a tracer installed. t is recorded verbatim as Event.Dur.
func (p *Proc) trace(kind EventKind, t float64) {
	if p.m.tracer != nil && t > 0 {
		if seq, ok := p.keep(kind); ok {
			p.m.tracer.Record(Event{Proc: p.id, Kind: kind, Start: p.clock, End: p.clock + t,
				Seq: seq, Peer: -1, Dur: t})
		}
	}
}

// marker records a zero-duration event (EvFault, EvRetry) at the current
// clock if a tracer is installed.
func (p *Proc) marker(kind EventKind, peer, bytes int, label string) {
	if p.m.tracer != nil {
		if seq, ok := p.keep(kind); ok {
			p.m.tracer.Record(Event{Proc: p.id, Kind: kind, Start: p.clock, End: p.clock,
				Seq: seq, Peer: peer, Bytes: bytes, Label: label})
		}
	}
}

// scale applies the processor's fault-plan slowdown to a local duration.
// Healthy processors have slow == 0 and pay a single compare.
func (p *Proc) scale(t float64) float64 {
	if p.slow > 1 {
		return t * p.slow
	}
	return t
}

// checkAlive kills the processor if its clock has reached the fault plan's
// death time. It is called at the start of every operation, so a processor
// dies at the first operation boundary at or after deathAt; healthy
// processors (deathAt == 0) pay a single compare.
func (p *Proc) checkAlive() {
	if p.deathAt > 0 && p.clock >= p.deathAt {
		p.die()
	}
}

// die records the death marker and unwinds the processor with a typed
// panic. The panic is captured by the engine and surfaced through Run's
// *RunError; every processor blocked on this one fails with
// *DeadSenderError in turn, so the failure cascades instead of hanging.
func (p *Proc) die() {
	p.deathAt = 0 // the death marker and panic fire once
	p.marker(EvFault, -1, 0, FaultDeath)
	panic(&ProcDeathError{Proc: p.id, At: p.clock})
}

// BeginSpan opens a named span on this processor's timeline; it must be
// balanced by EndSpan before the SPMD body returns. Spans nest (stack
// discipline) and carry the nesting depth at which they were opened. With no
// tracer installed both calls are free; callers that concatenate label
// strings should guard with Tracing() to keep the untraced path
// allocation-free.
func (p *Proc) BeginSpan(label string) {
	if p.m.tracer == nil {
		return
	}
	if seq, ok := p.keep(EvSpanBegin); ok {
		p.m.tracer.Record(Event{Proc: p.id, Kind: EvSpanBegin, Start: p.clock, End: p.clock,
			Seq: seq, Peer: -1, Label: label, Depth: len(p.spans)})
	}
	p.spans = append(p.spans, label)
}

// EndSpan closes the innermost open span.
func (p *Proc) EndSpan() {
	if p.m.tracer == nil {
		return
	}
	if len(p.spans) == 0 {
		panic(fmt.Sprintf("machine: processor %d EndSpan without matching BeginSpan", p.id))
	}
	label := p.spans[len(p.spans)-1]
	p.spans = p.spans[:len(p.spans)-1]
	if seq, ok := p.keep(EvSpanEnd); ok {
		p.m.tracer.Record(Event{Proc: p.id, Kind: EvSpanEnd, Start: p.clock, End: p.clock,
			Seq: seq, Peer: -1, Label: label, Depth: len(p.spans)})
	}
}

// SpanDepth returns the number of currently open spans (0 when untraced).
func (p *Proc) SpanDepth() int { return len(p.spans) }

// Compute advances the clock by the time to execute flops floating point
// operations.
func (p *Proc) Compute(flops float64) {
	p.checkAlive()
	t := p.scale(p.m.cost.FlopTime(flops))
	p.trace(EvCompute, t)
	p.clock += t
	p.busy += t
}

// Elapse advances the clock by an explicit number of virtual seconds,
// counted as busy time. Applications use it for phases whose cost is modeled
// rather than counted in flops (e.g. table lookups, I/O post-processing).
func (p *Proc) Elapse(seconds float64) {
	if seconds < 0 {
		panic("machine: Elapse with negative duration")
	}
	p.checkAlive()
	seconds = p.scale(seconds)
	p.trace(EvCompute, seconds)
	p.clock += seconds
	p.busy += seconds
}

// CopyBytes charges the local-memory copy cost for n bytes.
func (p *Proc) CopyBytes(n int) {
	p.checkAlive()
	t := p.scale(p.m.cost.CopyTime(n))
	p.trace(EvCompute, t)
	p.clock += t
	p.busy += t
}

// IO charges the cost of reading or writing n bytes through the I/O
// subsystem to this processor's clock. Serialization of I/O is a property of
// the program structure (the paper designates I/O processors), not of this
// call.
func (p *Proc) IO(n int) {
	p.checkAlive()
	t := p.scale(p.m.cost.IOTime(n))
	if p.m.tracer != nil && t > 0 {
		if seq, ok := p.keep(EvIO); ok {
			p.m.tracer.Record(Event{Proc: p.id, Kind: EvIO, Start: p.clock, End: p.clock + t,
				Seq: seq, Peer: -1, Bytes: n, Dur: t})
		}
	}
	p.clock += t
	p.busy += t
}

// Send deposits a message for dst. It never blocks; the sender is charged
// only the injection overhead. bytes is the payload size for cost purposes.
func (p *Proc) Send(dst int, data any, bytes int) {
	if dst < 0 || dst >= p.m.n {
		panic(fmt.Sprintf("machine: Send to invalid processor %d (machine has %d)", dst, p.m.n))
	}
	p.checkAlive()
	overhead := p.scale(p.m.cost.SendOverhead)
	// The full wire latency (and the fault plan's verdict, which can extend
	// it) is computed before the send event is recorded, so the event carries
	// the complete edge: overhead duration, wire time, and the per-pair FIFO
	// sequence number. Skeleton capture (internal/skeleton) rebuilds the
	// exact dependence DAG from these three fields alone.
	wire := p.m.cost.WireTime(bytes)
	if p.m.hops != nil {
		wire += float64(p.m.hops(p.id, dst)) * p.m.cost.PerHop
	}
	mb := p.mailbox(dst, p.id)
	var mf MessageFault
	var seq int64
	if p.m.tracer != nil || p.m.faults != nil {
		seq = mb.sendSeq
		mb.sendSeq++
	}
	if p.m.faults != nil {
		mf = p.m.faults.MessageFault(p.id, dst, seq)
		if mf.Delay > 0 {
			wire += mf.Delay
		}
	}
	if p.m.tracer != nil {
		// Recorded even when SendOverhead is zero: trace analysis matches
		// send events to recv markers to reconstruct dependency edges.
		if eseq, ok := p.keep(EvSend); ok {
			p.m.tracer.Record(Event{Proc: p.id, Kind: EvSend, Start: p.clock,
				End: p.clock + overhead, Seq: eseq, Peer: dst, Bytes: bytes,
				Dur: overhead, Wire: wire, PairSeq: seq})
		}
	}
	p.clock += overhead
	p.busy += overhead
	for k := 0; k < mf.Retries; k++ {
		p.marker(EvRetry, dst, bytes, "")
	}
	if mf.Delay > 0 {
		p.marker(EvFault, dst, bytes, FaultDelay)
	}
	msg := Message{
		Src:      p.id,
		Data:     data,
		Bytes:    bytes,
		ArriveAt: p.clock + wire,
	}
	p.m.put(mb, msg)
	if mf.Duplicate {
		p.marker(EvFault, dst, bytes, FaultDup)
		dup := msg
		dup.Dup = true
		p.m.put(mb, dup)
	}
	p.sent++
	p.bytes += int64(bytes)
}

// Recv blocks until the next message from src is available, advances the
// clock to its arrival time, and returns it. If src's SPMD body terminates
// — by death, panic, or normal return — with nothing deposited, Recv panics
// with *DeadSenderError instead of waiting forever, so failures cascade and
// the run unwinds.
func (p *Proc) Recv(src int) Message {
	if src < 0 || src >= p.m.n {
		panic(fmt.Sprintf("machine: Recv from invalid processor %d (machine has %d)", src, p.m.n))
	}
	p.checkAlive()
	mb := p.mailbox(p.id, src)
	for {
		msg, ok := p.waitMsg(mb, src)
		if !ok {
			fate, exitAt := p.m.senderFate(src)
			panic(&DeadSenderError{Proc: p.id, Src: src, At: p.clock,
				SrcPanicked: fate == termPanicked, SrcExitAt: exitAt})
		}
		if msg.Dup {
			p.dropDup(src, msg)
			continue
		}
		p.finishRecv(mb, src, msg)
		return msg
	}
}

// waitMsg blocks until a message from src is consumed from mb or src's
// termination proves none is coming (ok == false). The separation between
// wait (block until deposit or termination, don't consume) and tryGet
// (consume) is safe because each mailbox has a single consumer.
func (p *Proc) waitMsg(mb *mailbox, src int) (Message, bool) {
	for {
		if msg, ok := mb.tryGet(); ok {
			return msg, true
		}
		if !p.wait(mb, src) {
			return Message{}, false
		}
	}
}

// dropDup discards a transport-level duplicate at the receive path,
// recording the detection. Duplicates cost the receiver no virtual time:
// the filtering happens below the application's cost model.
func (p *Proc) dropDup(src int, msg Message) {
	p.marker(EvFault, src, msg.Bytes, FaultDupDrop)
}

// TryRecv receives a message from src if one has already been deposited.
// Used by tests; SPMD programs use Recv. It performs the same post-receive
// bookkeeping as Recv, so traced programs using it still emit the
// EvWait/EvRecv markers trace analysis matches against EvSend events.
func (p *Proc) TryRecv(src int) (Message, bool) {
	p.checkAlive()
	mb := p.mailbox(p.id, src)
	for {
		msg, ok := mb.tryGet()
		if !ok {
			return Message{}, false
		}
		if msg.Dup {
			p.dropDup(src, msg)
			continue
		}
		p.finishRecv(mb, src, msg)
		return msg, true
	}
}

// finishRecv is the post-receive bookkeeping shared by Recv and TryRecv:
// wait-time accounting with its EvWait interval, the EvRecv marker (stamped
// with the pair's FIFO sequence number), and the received-message counter.
func (p *Proc) finishRecv(mb *mailbox, src int, msg Message) {
	if msg.ArriveAt > p.clock {
		if p.m.tracer != nil {
			if seq, ok := p.keep(EvWait); ok {
				p.m.tracer.Record(Event{Proc: p.id, Kind: EvWait, Start: p.clock,
					End: msg.ArriveAt, Seq: seq, Peer: src, Bytes: msg.Bytes})
			}
		}
		p.idle += msg.ArriveAt - p.clock
		p.clock = msg.ArriveAt
	}
	if p.m.tracer != nil {
		// The pair's FIFO counter advances for every receive, sampled or
		// not, so a kept EvRecv always carries the PairSeq its matching
		// EvSend recorded.
		seq := mb.recvSeq
		mb.recvSeq++
		if eseq, ok := p.keep(EvRecv); ok {
			p.m.tracer.Record(Event{Proc: p.id, Kind: EvRecv, Start: p.clock, End: p.clock,
				Seq: eseq, Peer: src, Bytes: msg.Bytes, PairSeq: seq})
		}
	}
	p.recvd++
}

// ProcStats is the summary of one processor after a run.
type ProcStats struct {
	ID        int
	Finish    float64 // final clock value
	Busy      float64
	Idle      float64
	MsgsSent  int64
	BytesSent int64
}

// RunStats summarizes a completed SPMD run.
type RunStats struct {
	Procs []ProcStats
}

// MakespanTime returns the maximum finishing virtual time over processors.
func (s RunStats) MakespanTime() float64 {
	max := 0.0
	for _, p := range s.Procs {
		if p.Finish > max {
			max = p.Finish
		}
	}
	return max
}

// TotalBusy returns the sum of busy times over processors.
func (s RunStats) TotalBusy() float64 {
	sum := 0.0
	for _, p := range s.Procs {
		sum += p.Busy
	}
	return sum
}

// Run executes fn as an SPMD program on the machine's execution engine
// (goroutine-per-processor by default; see SetEngine), each invocation
// receiving its own Proc. It returns per-processor statistics after all
// processors finish. A Machine may be Run only once; mailboxes must be empty
// at exit (leftover messages indicate a protocol bug and cause a panic
// naming every undrained sender→receiver pair). If any processor panics —
// an application bug, a fault-plan death, or the resulting cascade of
// dead-sender failures — Run panics with a *RunError aggregating every
// processor's panic and naming the root cause.
func (m *Machine) Run(fn func(*Proc)) RunStats {
	// All P processor states live in one arena slice: one allocation instead
	// of P, initialized by a parallel fold instead of a serial O(P) loop.
	// Engines index into the arena directly and RunStats streams out of it
	// at the end, so no second O(P) pointer structure ever exists.
	procs := make([]Proc, m.n)
	forkjoin.For(m.n, initGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			procs[i].m = m
			procs[i].id = i
			procs[i].wake = make(chan struct{}, 1)
		}
	})
	m.applyProcFaults(procs)
	var rec panicRecorder
	m.eng.run(m, procs, func(p *Proc) {
		// Mark termination — and wake every receiver blocked on this
		// processor — whether the body returns or panics; the re-panic
		// preserves the engine's per-processor capture. The ordering
		// matters under the coop engine: waiters must reach the ready
		// heap before the scheduler's finish step runs its all-blocked
		// (deadlock) check.
		defer func() {
			r := recover()
			m.termAt[p.id] = p.clock
			if r != nil {
				m.term[p.id].Store(termPanicked)
			} else {
				m.term[p.id].Store(termExited)
			}
			m.senderTerminated(p.id)
			if r != nil {
				panic(r)
			}
		}()
		if p.slow > 1 {
			p.marker(EvFault, -1, 0, FaultSlow)
		}
		fn(p)
		if len(p.spans) != 0 {
			panic(fmt.Sprintf("machine: processor %d finished with %d unclosed span(s), innermost %q",
				p.id, len(p.spans), p.spans[len(p.spans)-1]))
		}
	}, &rec)
	if failed := rec.failed(); failed != nil {
		panic(&RunError{Panics: failed})
	}
	if msg := m.drainReport(); msg != "" {
		panic(msg)
	}
	return m.foldStats(procs)
}

// applyProcFaults sets the per-processor slowdown and death time of the
// processors the fault plan enumerates.
func (m *Machine) applyProcFaults(procs []Proc) {
	if m.faults == nil {
		return
	}
	m.faults.ProcFaults(m.n, func(i int, slow, deathAt float64) {
		if slow > 1 {
			procs[i].slow = slow
		}
		if deathAt > 0 {
			procs[i].deathAt = deathAt
		}
	})
}

// foldStats streams RunStats out of the proc arena with a parallel fold.
// Every element is index-addressed, so the result is byte-identical to the
// seed's serial copy loop.
func (m *Machine) foldStats(procs []Proc) RunStats {
	stats := RunStats{Procs: make([]ProcStats, m.n)}
	forkjoin.For(m.n, initGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := &procs[i]
			stats.Procs[i] = ProcStats{
				ID: i, Finish: p.clock, Busy: p.busy, Idle: p.idle,
				MsgsSent: p.sent, BytesSent: p.bytes,
			}
		}
	})
	return stats
}

// drainReport walks every created mailbox after a run (via the per-source
// registry, so the check is O(active pairs), not O(n^2); source ranges are
// folded in parallel on large machines) and, if any message was left
// unconsumed, formats a diagnostic naming each offending src->dst pair with
// its leftover count (capped at eight pairs so an all-to-all protocol bug
// stays readable). Pairs are reported in (dst, src) order — collection
// order is subrange- and host-schedule-dependent, so the collected pairs
// are sorted to keep the diagnostic deterministic. Returns "" when the
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
			for _, e := range m.bySrc[src].dsts {
				if n := e.mb.pending(); n > 0 {
					sub += n
					local = append(local, leftover{dst: e.dst, src: src, count: n})
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
