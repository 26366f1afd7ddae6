// Package skeleton captures a traced run as a *communication skeleton*: the
// dependence DAG of compute amounts, message edges (bytes, src/dst, per-pair
// FIFO sequence), and span boundaries, stripped of absolute timestamps. A
// skeleton is the machine-independent shape of a run — what the program did,
// not when — and it can be re-costed analytically under perturbed machine
// parameters (alpha, beta, flop rate) or per-span virtual speedups without
// re-simulating, which is the foundation of the what-if causal profiler
// (fxprof -whatif) and of regression attribution (fxbench -compare).
//
// The capture is exact in a strong sense: every clock advance the machine
// made is recorded as the cost model produced it (machine.Event.Dur and
// .Wire carry the pre-rounding increments), so re-costing a skeleton at its
// recorded parameters reproduces the recorded event stream, makespan and
// critical path *bitwise* — see Recost and the determinism tests.
//
// Capture paths:
//   - FromEvents folds a completed trace (e.g. trace.Collector.Events()).
//   - Sink is a machine.Tracer that accumulates the same information from a
//     live run; combine with other tracers via trace.Tee.
//
// Both paths produce identical skeletons for the same run.
package skeleton

import (
	"fmt"
	"sort"
	"sync"

	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// Op is one node of the dependence DAG: a single operation of one
// processor's program, in program order. Waits are not stored — blocking is
// a *consequence* of the DAG (a receive waits exactly when its message
// arrives after the local clock), so re-costing derives waits instead of
// replaying them.
type Op struct {
	// Kind is the operation class (EvCompute, EvSend, EvRecv, EvIO, EvFault,
	// EvRetry, EvSpanBegin, EvSpanEnd; never EvWait).
	Kind machine.EventKind
	// Dur is the charged local duration exactly as the machine's cost model
	// produced it (machine.Event.Dur): compute time, io time or send
	// injection overhead. Zero for markers and receives.
	Dur float64
	// Peer is the other processor of a send/recv/retry/fault op
	// (-1 when there is none).
	Peer int
	// Bytes is the payload size of a send/recv op or the byte count of an
	// io op.
	Bytes int
	// PairSeq is the per-(src,dst) FIFO sequence number of the message a
	// send or recv op refers to; (src, dst, PairSeq) identifies the edge.
	PairSeq int64
	// Wire is the full recorded wire latency of a send op: alpha +
	// bytes*beta plus per-hop and fault-injected components
	// (machine.Event.Wire). The message arrives at the send's local end
	// time plus Wire.
	Wire float64
	// Label indexes Skeleton.Labels for span markers (the span name) and
	// fault markers (the fault name); -1 otherwise.
	Label int
	// Depth is the nesting depth of a span marker (0 = outermost).
	Depth int
	// Span indexes Skeleton.Labels with the innermost named span owning
	// this op (-1 outside every span). Span-begin markers are owned by the
	// enclosing parent; span-end markers by the span they close — the same
	// attribution trace.Timeline uses.
	Span int
}

// Skeleton is the captured dependence DAG of one run.
type Skeleton struct {
	// P is the number of processors (highest processor id observed + 1).
	P int
	// Cost is the machine cost model the run was recorded under; re-costing
	// at exactly these parameters reproduces the run bitwise.
	Cost sim.CostModel
	// Chaos is the fault-injection plan label of the recorded run
	// ("seed:profile", "" for a healthy run). Informational: injected
	// delays and retries are already baked into Dur/Wire and the op
	// sequence.
	Chaos string
	// Labels interns every span and fault label, in first-use order by
	// ascending processor then program order — a deterministic order, so
	// identical runs produce identical skeletons.
	Labels []string
	// Procs[p] is processor p's program, in program order.
	Procs [][]Op
	// Makespan is the recorded run's makespan (max event end time).
	Makespan float64
}

// Ops returns the total number of DAG nodes.
func (s *Skeleton) Ops() int {
	n := 0
	for _, ops := range s.Procs {
		n += len(ops)
	}
	return n
}

// FromEvents folds a complete trace into a skeleton. cost must be the model
// the run executed under (machine.Machine.Cost()). The input is not
// modified; any event order is accepted.
func FromEvents(cost sim.CostModel, evs []machine.Event) (*Skeleton, error) {
	sorted := append([]machine.Event(nil), evs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Proc != sorted[j].Proc {
			return sorted[i].Proc < sorted[j].Proc
		}
		return sorted[i].Seq < sorted[j].Seq
	})
	return fold(cost, sorted)
}

// fold builds a skeleton from events already in (proc, seq) order.
func fold(cost sim.CostModel, evs []machine.Event) (*Skeleton, error) {
	s := &Skeleton{Cost: cost}
	labelIdx := map[string]int{}
	intern := func(l string) int {
		if l == "" {
			return -1
		}
		if i, ok := labelIdx[l]; ok {
			return i
		}
		i := len(s.Labels)
		s.Labels = append(s.Labels, l)
		labelIdx[l] = i
		return i
	}
	for _, e := range evs {
		if e.Proc+1 > s.P {
			s.P = e.Proc + 1
		}
		if e.End > s.Makespan {
			s.Makespan = e.End
		}
	}
	if s.P == 0 {
		return nil, fmt.Errorf("skeleton: empty trace")
	}
	s.Procs = make([][]Op, s.P)

	var stack []int // open span label indices of the current processor
	lastProc := -1
	var pendingWait *machine.Event
	for i := range evs {
		e := &evs[i]
		if e.Proc != lastProc {
			if pendingWait != nil {
				return nil, fmt.Errorf("skeleton: processor %d trace ends inside a wait", lastProc)
			}
			if len(stack) != 0 {
				return nil, fmt.Errorf("skeleton: processor %d trace ends with %d unclosed span(s)", lastProc, len(stack))
			}
			stack = stack[:0]
			lastProc = e.Proc
		}
		top := -1
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if pendingWait != nil {
			// machine.Proc.finishRecv records the wait interval and the recv
			// marker back to back; anything else is a malformed trace.
			if e.Kind != machine.EvRecv || e.Peer != pendingWait.Peer {
				return nil, fmt.Errorf("skeleton: processor %d wait (peer %d) not followed by its recv", e.Proc, pendingWait.Peer)
			}
			pendingWait = nil
		}
		op := Op{Kind: e.Kind, Peer: e.Peer, Bytes: e.Bytes, Span: top, Label: -1}
		switch e.Kind {
		case machine.EvWait:
			// Folded away: the matching recv op carries the edge; blocking is
			// re-derived at re-cost time.
			pendingWait = e
			continue
		case machine.EvCompute, machine.EvIO:
			op.Dur = e.Dur
		case machine.EvSend:
			op.Dur, op.Wire, op.PairSeq = e.Dur, e.Wire, e.PairSeq
		case machine.EvRecv:
			op.PairSeq = e.PairSeq
		case machine.EvFault, machine.EvRetry:
			op.Label = intern(e.Label)
		case machine.EvSpanBegin:
			op.Label, op.Depth = intern(e.Label), e.Depth
			s.Procs[e.Proc] = append(s.Procs[e.Proc], op)
			stack = append(stack, op.Label)
			continue
		case machine.EvSpanEnd:
			if len(stack) == 0 {
				return nil, fmt.Errorf("skeleton: processor %d span-end without begin", e.Proc)
			}
			stack = stack[:len(stack)-1]
			op.Label, op.Depth, op.Span = intern(e.Label), e.Depth, top
			s.Procs[e.Proc] = append(s.Procs[e.Proc], op)
			continue
		default:
			return nil, fmt.Errorf("skeleton: unknown event kind %v", e.Kind)
		}
		s.Procs[e.Proc] = append(s.Procs[e.Proc], op)
	}
	if pendingWait != nil {
		return nil, fmt.Errorf("skeleton: processor %d trace ends inside a wait", lastProc)
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("skeleton: processor %d trace ends with %d unclosed span(s)", lastProc, len(stack))
	}
	return s, nil
}

// sinkShards stripes the Sink's per-processor buffers the same way
// trace.Collector stripes its shards, so concurrent processor goroutines do
// not serialize on one mutex.
const sinkShards = 64

type sinkShard struct {
	mu     sync.Mutex
	byProc map[int][]machine.Event
}

// Sink is a machine.Tracer that captures a skeleton from a live run. It
// buffers events per processor (each processor records its own events in
// program order, so no global sort is needed) and folds them on Skeleton().
// Combine with other tracers via trace.Tee. Safe for concurrent use.
type Sink struct {
	cost   sim.CostModel
	chaos  string
	shards [sinkShards]sinkShard
}

var _ machine.Tracer = (*Sink)(nil)

// NewSink returns a sink capturing a run executed under the given cost
// model. chaos is the fault plan label to stamp on the skeleton ("" for a
// healthy run).
func NewSink(cost sim.CostModel, chaos string) *Sink {
	return &Sink{cost: cost, chaos: chaos}
}

// Record implements machine.Tracer.
func (s *Sink) Record(e machine.Event) {
	proc := e.Proc
	if proc < 0 {
		proc = -proc
	}
	sh := &s.shards[proc%sinkShards]
	sh.mu.Lock()
	if sh.byProc == nil {
		sh.byProc = make(map[int][]machine.Event)
	}
	sh.byProc[e.Proc] = append(sh.byProc[e.Proc], e)
	sh.mu.Unlock()
}

// Skeleton folds the captured events. Call after the run completes; the
// result is identical to FromEvents over the same run's collected trace.
func (s *Sink) Skeleton() (*Skeleton, error) {
	var procs []int
	perProc := map[int][]machine.Event{}
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for pr, evs := range sh.byProc {
			procs = append(procs, pr)
			perProc[pr] = evs
			total += len(evs)
		}
		sh.mu.Unlock()
	}
	sort.Ints(procs)
	ordered := make([]machine.Event, 0, total)
	for _, pr := range procs {
		ordered = append(ordered, perProc[pr]...)
	}
	sk, err := fold(s.cost, ordered)
	if err != nil {
		return nil, err
	}
	sk.Chaos = s.chaos
	return sk, nil
}
