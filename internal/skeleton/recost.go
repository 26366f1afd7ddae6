package skeleton

// Analytic re-costing: replay the dependence DAG under perturbed machine
// parameters and per-span virtual speedups, without re-simulating. The
// replay is a deterministic dataflow evaluation — each processor's program
// runs in order, a receive blocks until its edge's arrival time is known,
// and a send publishes its arrival time — so one evaluation is a few
// map operations per message instead of a full engine run.
//
// Exactness. At the recorded parameters every scale factor is exactly 1.0
// and every parameter delta exactly 0.0, both of which are identities under
// IEEE-754 arithmetic, and the replay performs the *same* floating-point
// operations the machine performed (clock' = fl(clock + Dur),
// arrive = fl(sendEnd + Wire)); the re-costed event stream is therefore
// bitwise identical to the recorded one. Under perturbed parameters the
// replay deviates from a real re-simulation only where the recorded control
// flow would have changed (fault schedules keyed on absolute time) — for
// healthy runs the DAG is parameter-independent and the re-cost matches a
// real re-run to rounding.
//
// Approximations, by construction:
//   - all EvCompute time scales with the flop-rate ratio, including
//     modelled Elapse phases and local copies;
//   - changing PerHop is unsupported (hop counts are folded into Wire).

import (
	"fmt"
	"math"

	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// Params perturbs a re-cost evaluation. The zero value replays the skeleton
// at its recorded parameters.
type Params struct {
	// Cost, when non-nil, replaces the recorded cost model: alpha and beta
	// shift every edge's wire time by their deltas, FlopRate scales compute
	// time, SendOverhead scales injection time, IORate scales io time.
	Cost *sim.CostModel
	// SpanSpeedup maps a span label to a virtual speedup factor k > 0: the
	// local durations (compute, io, send overhead) of ops whose innermost
	// owning span has that label are divided by k. This is the COZ-style
	// "what if this span were k times faster" experiment.
	SpanSpeedup map[string]float64
	// NetScale, when non-zero and != 1, multiplies every edge's wire time
	// after the alpha/beta adjustment (a uniform network speedup/slowdown).
	// When set it must be positive and finite; zero means "unset" (scale 1).
	NetScale float64
}

// ParamError is the typed error a re-cost evaluation returns for invalid
// parameters: a non-positive or non-finite flop rate, a negative alpha or
// beta, a non-positive net scale or span speedup. Catching these at the
// seam keeps NaN and Inf out of replayed makespans — and out of the
// committed campaign goldens built from them.
type ParamError struct {
	// Field names the offending parameter ("cost.FlopRate", "netscale",
	// "speedup:<label>", ...).
	Field string
	// Value is the rejected value.
	Value float64
	// Reason says what the parameter must satisfy.
	Reason string
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("skeleton: invalid re-cost parameter %s = %g: %s", e.Field, e.Value, e.Reason)
}

// finite reports whether v is a usable float (not NaN, not an infinity).
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// validateCost rejects cost models that would replay into NaN/Inf
// makespans. Stricter than sim.CostModel.Validate: NaN and Inf fields are
// errors here, not merely sign violations.
func validateCost(c *sim.CostModel) *ParamError {
	if !(c.FlopRate > 0) || !finite(c.FlopRate) {
		return &ParamError{Field: "cost.FlopRate", Value: c.FlopRate, Reason: "must be positive and finite"}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"cost.Alpha", c.Alpha}, {"cost.Beta", c.Beta},
		{"cost.SendOverhead", c.SendOverhead}, {"cost.MemByte", c.MemByte},
		{"cost.BarrierAlpha", c.BarrierAlpha}, {"cost.IORate", c.IORate},
		{"cost.PerHop", c.PerHop},
	} {
		if f.v < 0 || !finite(f.v) {
			return &ParamError{Field: f.name, Value: f.v, Reason: "must be non-negative and finite"}
		}
	}
	return nil
}

// Validate checks p without evaluating anything; every re-cost entry point
// performs the same checks, so a caller building campaign grids can reject
// a bad point before spending a capture on it. Span labels are not resolved
// here (that needs a skeleton); only the numeric values are checked.
func (p Params) Validate() error {
	if p.Cost != nil {
		if err := validateCost(p.Cost); err != nil {
			return err
		}
	}
	if p.NetScale != 0 && (!(p.NetScale > 0) || !finite(p.NetScale)) {
		return &ParamError{Field: "netscale", Value: p.NetScale, Reason: "must be positive and finite"}
	}
	for label, k := range p.SpanSpeedup {
		if !(k > 0) || !finite(k) {
			return &ParamError{Field: "speedup:" + label, Value: k, Reason: "must be positive and finite"}
		}
	}
	return nil
}

// Result is one re-cost evaluation.
type Result struct {
	// Makespan is the re-costed run's makespan.
	Makespan float64
	// Events is the full re-costed event stream in (proc, seq) order —
	// directly consumable by trace.ComputeCriticalPath, metrics.FromTrace
	// and every other post-hoc view. Nil unless produced by RecostEvents.
	Events []machine.Event
}

// Recost replays the DAG under p and returns the makespan only — the fast
// path for what-if sweeps.
func (s *Skeleton) Recost(p Params) (float64, error) {
	r, err := s.replay(p, false)
	if err != nil {
		return 0, err
	}
	return r.Makespan, nil
}

// RecostEvents replays the DAG under p and materializes the full re-costed
// event stream.
func (s *Skeleton) RecostEvents(p Params) (*Result, error) {
	return s.replay(p, true)
}

// edgeKey identifies one message edge: the seq-th message through the
// ordered (src, dst) pair.
type edgeKey struct {
	src, dst int
	seq      int64
}

// factors are the precomputed per-class scale factors of one evaluation.
type factors struct {
	compute float64 // old.FlopRate / new.FlopRate
	io      float64 // old.IORate / new.IORate
	send    float64 // new.SendOverhead / old.SendOverhead
	dAlpha  float64 // new.Alpha - old.Alpha
	dBeta   float64 // new.Beta - old.Beta
	net     float64 // NetScale
	span    []float64
}

func (s *Skeleton) factors(p Params) (factors, error) {
	if err := p.Validate(); err != nil {
		return factors{}, err
	}
	old := s.Cost
	cur := old
	if p.Cost != nil {
		cur = *p.Cost
	}
	f := factors{compute: 1, io: 1, send: 1, net: 1}
	if cur.FlopRate != old.FlopRate {
		f.compute = old.FlopRate / cur.FlopRate
	}
	if cur.IORate != old.IORate && old.IORate > 0 && cur.IORate > 0 {
		f.io = old.IORate / cur.IORate
	}
	if cur.SendOverhead != old.SendOverhead && old.SendOverhead > 0 {
		f.send = cur.SendOverhead / old.SendOverhead
	}
	f.dAlpha = cur.Alpha - old.Alpha
	f.dBeta = cur.Beta - old.Beta
	if p.NetScale != 0 {
		f.net = p.NetScale
	}
	if len(p.SpanSpeedup) > 0 {
		f.span = make([]float64, len(s.Labels))
		for i := range f.span {
			f.span[i] = 1
		}
		for label, k := range p.SpanSpeedup {
			idx := -1
			for i, l := range s.Labels {
				if l == label {
					idx = i
					break
				}
			}
			if idx < 0 {
				return factors{}, fmt.Errorf("skeleton: speedup for unknown span %q", label)
			}
			f.span[idx] = k
		}
	}
	return f, nil
}

// local returns the scale factor for a local duration of class factor c
// owned by span index own.
func (f *factors) local(c float64, own int) float64 {
	if f.span != nil && own >= 0 {
		if k := f.span[own]; k != 1 {
			return c / k
		}
	}
	return c
}

// replay evaluates the DAG. Each processor's program advances until it
// blocks on a not-yet-published edge; sends publish arrival times and wake
// the blocked receiver. The schedule is a deterministic FIFO over processor
// ids, and — because the evaluation is pure dataflow — the result is
// schedule-independent anyway.
func (s *Skeleton) replay(p Params, withEvents bool) (*Result, error) {
	f, err := s.factors(p)
	if err != nil {
		return nil, err
	}
	n := len(s.Procs)
	pc := make([]int, n)
	clock := make([]float64, n)
	seq := make([]int64, n)
	var evBuf [][]machine.Event
	if withEvents {
		evBuf = make([][]machine.Event, n)
		for i, ops := range s.Procs {
			evBuf[i] = make([]machine.Event, 0, len(ops)+len(ops)/4)
		}
	}
	arrivals := map[edgeKey]float64{}
	waiting := map[edgeKey]int{}
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if len(s.Procs[i]) > 0 {
			ready = append(ready, i)
		}
	}
	emit := func(pr int, e machine.Event) {
		seq[pr]++
		e.Proc, e.Seq = pr, seq[pr]
		if withEvents {
			evBuf[pr] = append(evBuf[pr], e)
		}
	}
	label := func(idx int) string {
		if idx < 0 {
			return ""
		}
		return s.Labels[idx]
	}

	var run func(pr int)
	run = func(pr int) {
		ops := s.Procs[pr]
		for pc[pr] < len(ops) {
			op := &ops[pc[pr]]
			switch op.Kind {
			case machine.EvRecv:
				k := edgeKey{op.Peer, pr, op.PairSeq}
				arrive, ok := arrivals[k]
				if !ok {
					waiting[k] = pr
					return // blocked; the publishing send re-enqueues us
				}
				delete(arrivals, k)
				if arrive > clock[pr] {
					emit(pr, machine.Event{Kind: machine.EvWait, Start: clock[pr],
						End: arrive, Peer: op.Peer, Bytes: op.Bytes})
					clock[pr] = arrive
				}
				emit(pr, machine.Event{Kind: machine.EvRecv, Start: clock[pr], End: clock[pr],
					Peer: op.Peer, Bytes: op.Bytes, PairSeq: op.PairSeq})
			case machine.EvSend:
				d := op.Dur
				if lf := f.local(f.send, op.Span); lf != 1 {
					d *= lf
				}
				w := op.Wire
				if f.dAlpha != 0 {
					w += f.dAlpha
				}
				if f.dBeta != 0 {
					w += float64(op.Bytes) * f.dBeta
				}
				if f.net != 1 {
					w *= f.net
				}
				if w < 0 {
					w = 0
				}
				start := clock[pr]
				end := start + d
				emit(pr, machine.Event{Kind: machine.EvSend, Start: start, End: end,
					Peer: op.Peer, Bytes: op.Bytes, Dur: d, Wire: w, PairSeq: op.PairSeq})
				clock[pr] = end
				k := edgeKey{pr, op.Peer, op.PairSeq}
				arrivals[k] = end + w
				if wpr, ok := waiting[k]; ok {
					delete(waiting, k)
					ready = append(ready, wpr)
				}
			case machine.EvCompute, machine.EvIO:
				c := f.compute
				if op.Kind == machine.EvIO {
					c = f.io
				}
				d := op.Dur
				if lf := f.local(c, op.Span); lf != 1 {
					d *= lf
				}
				start := clock[pr]
				end := start + d
				emit(pr, machine.Event{Kind: op.Kind, Start: start, End: end,
					Peer: -1, Bytes: op.Bytes, Dur: d})
				clock[pr] = end
			case machine.EvFault, machine.EvRetry:
				emit(pr, machine.Event{Kind: op.Kind, Start: clock[pr], End: clock[pr],
					Peer: op.Peer, Bytes: op.Bytes, Label: label(op.Label)})
			case machine.EvSpanBegin, machine.EvSpanEnd:
				emit(pr, machine.Event{Kind: op.Kind, Start: clock[pr], End: clock[pr],
					Peer: -1, Label: label(op.Label), Depth: op.Depth})
			default:
				panic(fmt.Sprintf("skeleton: unknown op kind %v", op.Kind))
			}
			pc[pr]++
		}
	}

	for len(ready) > 0 {
		pr := ready[0]
		ready = ready[1:]
		run(pr)
	}
	for i := 0; i < n; i++ {
		if pc[i] < len(s.Procs[i]) {
			op := s.Procs[i][pc[i]]
			return nil, fmt.Errorf("skeleton: replay stuck — processor %d blocked on message %d from %d (malformed or truncated skeleton)",
				i, op.PairSeq, op.Peer)
		}
	}
	res := &Result{}
	for i := 0; i < n; i++ {
		if clock[i] > res.Makespan {
			res.Makespan = clock[i]
		}
	}
	if !finite(res.Makespan) {
		return nil, fmt.Errorf("skeleton: re-costed makespan overflows to %g", res.Makespan)
	}
	if withEvents {
		total := 0
		for _, b := range evBuf {
			total += len(b)
		}
		res.Events = make([]machine.Event, 0, total)
		for _, b := range evBuf {
			res.Events = append(res.Events, b...)
		}
	}
	return res, nil
}
