package machine

import "fmt"

// EventKind classifies a traced virtual-time interval.
type EventKind uint8

const (
	// EvCompute is local computation (Compute).
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
