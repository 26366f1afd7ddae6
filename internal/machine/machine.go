// Package machine implements the simulated distributed-memory multicomputer
// that stands in for the paper's 64-node Intel Paragon.
//
// Each processor is a goroutine with a private virtual clock. Processors
// exchange messages through per-receiver inboxes that deliver each ordered
// pair's messages in FIFO order. A message carries
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
	"math"
	"sync"
	"sync/atomic"

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
	// seq is the per-pair sequence number EvRecv reports as PairSeq, set
	// while a tracer is installed. 32 bits keep a Message at 48 bytes.
	seq uint32
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
	// in[dst] is dst's inbox: every message deposited for it and not yet
	// consumed.
	in []inbox
	// procs is the processor arena of the Run in progress, nil outside Run.
	procs []Proc
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
		in:     make([]inbox, n),
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
	// parking is claimed, and so woken, exactly once, so one slot suffices.
	// nil on a hand-built Proc (some tests).
	wake chan struct{}
	// parkMu guards parked, the receivers parked on this processor, listed
	// through their parkPrev/parkNext links (see Proc.wait).
	parkMu             sync.Mutex
	parked             *Proc
	parkPrev, parkNext *Proc
	// sendSeq numbers the messages to each destination in program order:
	// the per-pair key of fault decisions and EvSend's PairSeq. Made only
	// while a fault plan or a tracer is installed.
	sendSeq map[int]int64
	// probes counts the queued messages this processor's receives compared.
	probes int64
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

// MsgsSent returns the number of messages this processor has sent.
func (p *Proc) MsgsSent() int64 { return p.sent }

// BytesSent returns the number of payload bytes this processor has sent.
func (p *Proc) BytesSent() int64 { return p.bytes }

// Tracing reports whether a tracer is installed. Callers that must build
// labels or other trace-only values check it first so the untraced path
// does no work (and no allocation).
func (p *Proc) Tracing() bool { return p.m.tracer != nil }

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

// Compute advances the clock by the time to execute flops floating point
// operations.
func (p *Proc) Compute(flops float64) {
	p.checkAlive()
	t := p.scale(p.m.cost.FlopTime(flops))
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
	var mf MessageFault
	var seq int64
	if p.m.tracer != nil || p.m.faults != nil {
		if p.sendSeq == nil {
			p.sendSeq = make(map[int]int64)
		}
		seq = p.sendSeq[dst]
		p.sendSeq[dst] = seq + 1
	}
	if p.m.faults != nil {
		mf = p.m.faults.MessageFault(p.id, dst, seq)
		if mf.Delay > 0 {
			wire += mf.Delay
		}
	}
	if p.m.tracer != nil {
		if seq > math.MaxUint32 {
			panic(fmt.Sprintf("machine: traced pair %d->%d passed 2^32 messages", p.id, dst))
		}
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
		seq:      uint32(seq),
	}
	p.m.put(dst, msg)
	if mf.Duplicate {
		p.marker(EvFault, dst, bytes, FaultDup)
		dup := msg
		dup.Dup = true
		p.m.put(dst, dup)
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
	for {
		msg, ok := p.waitMsg(src)
		if !ok {
			fate, exitAt := p.m.senderFate(src)
			panic(&DeadSenderError{Proc: p.id, Src: src, At: p.clock,
				SrcPanicked: fate == termPanicked, SrcExitAt: exitAt})
		}
		if msg.Dup {
			p.dropDup(src, msg)
			continue
		}
		p.finishRecv(src, msg)
		return msg
	}
}

// waitMsg blocks until a message from src is consumed from p's inbox or
// src's termination proves none is coming (ok == false). The separation
// between wait (block until deposit or termination, don't consume) and
// tryGet (consume) is safe because each inbox has a single consumer.
func (p *Proc) waitMsg(src int) (Message, bool) {
	for {
		if msg, ok := p.tryGet(src); ok {
			return msg, true
		}
		if !p.wait(src) {
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

// finishRecv is the post-receive bookkeeping of Recv and the tests' TryRecv:
// wait-time accounting with its EvWait interval, the EvRecv marker (stamped
// with the PairSeq its send recorded), and the received-message counter.
func (p *Proc) finishRecv(src int, msg Message) {
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
		if eseq, ok := p.keep(EvRecv); ok {
			p.m.tracer.Record(Event{Proc: p.id, Kind: EvRecv, Start: p.clock, End: p.clock,
				Seq: eseq, Peer: src, Bytes: msg.Bytes, PairSeq: int64(msg.seq)})
		}
	}
	p.recvd++
}
