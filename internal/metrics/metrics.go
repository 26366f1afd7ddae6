// Package metrics aggregates a traced run into a deterministic registry of
// counters and histograms keyed by (group, operation): how many messages and
// bytes each subgroup exchanged, how long it waited at subset barriers, how
// much compute/idle/IO time each ON scope consumed. It is fed from the same
// tracer hooks that drive the Gantt and critical-path views — the registry
// is a pure function of the event stream, so two identical runs produce
// byte-identical snapshots regardless of host scheduling.
//
// The (group, operation) key comes from the span-label convention shared by
// the fx runtime and the comm collectives ("op:detail:group[...]"): leaf
// events are attributed to their innermost enclosing span, whose label names
// both the operation ("barrier", "on:G2", ...) and the processor group it
// ran on. Events outside any span are accounted under ("(root)",
// "(program)").
package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"fxpar/internal/trace"
)

// HistBuckets is the number of log2 duration buckets kept per operation.
// Bucket i counts span activations with duration in [2^i, 2^(i+1))
// microseconds; bucket 0 also absorbs sub-microsecond activations.
const HistBuckets = 32

// Histogram is a fixed-shape log2 histogram of virtual durations.
type Histogram struct {
	Buckets [HistBuckets]int64 `json:"buckets"`
}

// Add records one duration in seconds. Durations below one microsecond land
// in bucket 0 — including zero, negative values (a malformed event whose End
// precedes its Start) and NaN, which would otherwise index the bucket array
// with a negative int(math.Log2(us)).
func (h *Histogram) Add(seconds float64) {
	us := seconds * 1e6
	b := 0
	if us >= 1 { // false for NaN and negatives: they clamp to bucket 0
		b = int(math.Log2(us))
		if b >= HistBuckets {
			b = HistBuckets - 1
		}
		if b < 0 { // paranoia against Log2 edge cases just above 1
			b = 0
		}
	}
	h.Buckets[b]++
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 {
	var n int64
	for _, c := range h.Buckets {
		n += c
	}
	return n
}

// OpMetrics accumulates everything observed for one (group, operation) key.
type OpMetrics struct {
	Group string `json:"group"`
	Op    string `json:"op"`
	// Spans counts activations (per member processor; a barrier on a
	// 4-processor group counts 4).
	Spans int64 `json:"spans"`
	// Time is the total virtual time inside the operation's spans, summed
	// over member processors.
	Time float64 `json:"time"`
	// Compute, Wait, Send, IO are leaf time inside the operation's spans
	// (innermost attribution: time inside a barrier nested in an ON block
	// counts toward the barrier, not the ON block).
	Compute float64 `json:"compute"`
	Wait    float64 `json:"wait"`
	Send    float64 `json:"send"`
	IO      float64 `json:"io"`
	// MsgsSent/BytesSent count message injections; MsgsRecvd/BytesRecvd
	// count consumptions.
	MsgsSent   int64 `json:"msgsSent"`
	BytesSent  int64 `json:"bytesSent"`
	MsgsRecvd  int64 `json:"msgsRecvd"`
	BytesRecvd int64 `json:"bytesRecvd"`
	// Faults and Retries count chaos markers attributed to the operation
	// (fault-plan perturbations and transport retransmissions). omitempty
	// keeps healthy snapshots byte-identical to pre-chaos baselines.
	Faults  int64 `json:"faults,omitempty"`
	Retries int64 `json:"retries,omitempty"`
	// Dur is the histogram of individual span durations.
	Dur Histogram `json:"dur"`
}

// Totals summarizes the whole run.
type Totals struct {
	Procs     int     `json:"procs"`
	Events    int     `json:"events"`
	Makespan  float64 `json:"makespan"`
	Compute   float64 `json:"compute"`
	Wait      float64 `json:"wait"`
	Send      float64 `json:"send"`
	IO        float64 `json:"io"`
	Msgs      int64   `json:"msgs"`
	Bytes     int64   `json:"bytes"`
	SpanKinds int     `json:"spanKinds"`
	// Chaos totals (see OpMetrics); zero — and absent from JSON — on
	// healthy runs.
	Faults  int64 `json:"faults,omitempty"`
	Retries int64 `json:"retries,omitempty"`
}

// Registry accumulates per-(group, operation) metrics. The zero value is
// not ready; use NewRegistry or a StreamSink.
type Registry struct {
	ops    map[string]*OpMetrics // key: group + "\x00" + op
	totals Totals
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ops: make(map[string]*OpMetrics)}
}

// Op returns (creating on first use) the metrics cell for a key.
func (r *Registry) Op(group, op string) *OpMetrics {
	k := group + "\x00" + op
	m := r.ops[k]
	if m == nil {
		m = &OpMetrics{Group: group, Op: op}
		r.ops[k] = m
	}
	return m
}

// keyOf derives the (group, op) key for a span label.
func keyOf(label string) (group, op string) {
	op, group = trace.SplitLabel(label)
	if group == "" {
		group = "(none)"
	}
	return group, op
}

// Snapshot is a deterministic, serializable view of a registry: operations
// sorted by (group, op).
type Snapshot struct {
	Totals Totals      `json:"totals"`
	Ops    []OpMetrics `json:"ops"`
}

// Snapshot materializes the registry in sorted order.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Totals: r.totals, Ops: make([]OpMetrics, 0, len(r.ops))}
	for _, m := range r.ops {
		s.Ops = append(s.Ops, *m)
	}
	sort.Slice(s.Ops, func(i, j int) bool {
		if s.Ops[i].Group != s.Ops[j].Group {
			return s.Ops[i].Group < s.Ops[j].Group
		}
		return s.Ops[i].Op < s.Ops[j].Op
	})
	return s
}

// JSON renders the snapshot as indented JSON with a trailing newline. The
// output is byte-identical across identical runs.
func (s Snapshot) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteText renders the snapshot as an aligned table: one row per
// (group, operation), heaviest total time first within each group.
func (s Snapshot) WriteText(w io.Writer) {
	fmt.Fprintf(w, "procs %d  events %d  makespan %.6f s\n", s.Totals.Procs, s.Totals.Events, s.Totals.Makespan)
	fmt.Fprintf(w, "totals: compute %.6f s  wait %.6f s  send %.6f s  io %.6f s  msgs %d  bytes %d\n",
		s.Totals.Compute, s.Totals.Wait, s.Totals.Send, s.Totals.IO, s.Totals.Msgs, s.Totals.Bytes)
	if len(s.Ops) == 0 {
		return
	}
	wg, wo := len("group"), len("op")
	for _, m := range s.Ops {
		if len(m.Group) > wg {
			wg = len(m.Group)
		}
		if len(m.Op) > wo {
			wo = len(m.Op)
		}
	}
	fmt.Fprintf(w, "%-*s %-*s %7s %11s %11s %11s %11s %11s %9s %11s %9s %11s\n",
		wg, "group", wo, "op", "spans", "time(s)", "compute(s)", "wait(s)", "send(s)", "io(s)",
		"msgsSent", "bytesSent", "msgsRecv", "bytesRecv")
	for _, m := range s.Ops {
		fmt.Fprintf(w, "%-*s %-*s %7d %11.6f %11.6f %11.6f %11.6f %11.6f %9d %11d %9d %11d\n",
			wg, m.Group, wo, m.Op, m.Spans, m.Time, m.Compute, m.Wait, m.Send, m.IO,
			m.MsgsSent, m.BytesSent, m.MsgsRecvd, m.BytesRecvd)
	}
}
