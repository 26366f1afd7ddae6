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
	// out[src] is src's side of the pair directory: the mailboxes of every
	// ordered pair (src, dst) touched so far, created lazily on the pair's
	// first send or receive (see mailboxFor).
	out []outbox
	// term[i]/termAt[i] record whether and when processor i's SPMD body
	// terminated in the current Run, so a receiver blocked on it can fail
	// with DeadSenderError instead of waiting forever.
	term   []atomic.Uint32
	termAt []float64
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
		out:    make([]outbox, n),
		term:   make([]atomic.Uint32, n),
		termAt: make([]float64, n),
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
	mb := p.m.mailboxFor(dst, p.id)
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
	mb := p.m.mailboxFor(p.id, src)
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
	mb := p.m.mailboxFor(p.id, src)
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
