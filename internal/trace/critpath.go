package trace

// Critical-path analysis: reconstructs the virtual-time dependency graph of
// a traced run — program order within each processor plus the send→recv
// edges, matched by the (src, dst, PairSeq) identity the machine stamps on
// both ends of every message — and walks the binding chain backwards from
// the event that ends at the makespan. Every instant on the path is
// attributed to an event kind (compute, send, io, network, ...) and to the
// innermost named span it ran in, which is what explains a pipeline's
// latency: the path threads through exactly the stages that serialize it.

import (
	"fmt"
	"io"
	"sort"

	"fxpar/internal/machine"
)

// KindTime is path time attributed to one event kind (or to "network", the
// wire latency of the send→recv edges the path crosses).
type KindTime struct {
	Kind string
	Time float64
}

// SpanTime is path time attributed to one span label.
type SpanTime struct {
	Label string
	Time  float64
	Steps int
	// Faults and Retries count the fault-injection markers on the path whose
	// innermost owning span has this label. The markers are zero-duration, so
	// without these counters a chaotic run's critical path would show *where*
	// time went but hide *why* — a retransmission storm inside a stage leaves
	// its time attributed to the stage with no visible cause.
	Faults  int
	Retries int
}

// CriticalPath is the longest virtual-time dependency chain of a run.
type CriticalPath struct {
	// Makespan is the virtual time at which the path (and the run) ends.
	Makespan float64
	// Start is the virtual time at which the path begins (first event).
	Start float64
	// Steps is the number of events on the path.
	Steps int
	// Hops is the number of cross-processor send→recv edges on the path.
	Hops int
	// Procs lists the distinct processors the path visits, ascending.
	Procs []int
	// ByKind attributes path time per event kind plus "network", sorted by
	// time descending (ties by name).
	ByKind []KindTime
	// BySpan attributes path time to the innermost enclosing span of each
	// path event ("(network)" for wire time, "(untracked)" outside spans),
	// sorted by time descending (ties by label).
	BySpan []SpanTime
	// Faults and Retries total the fault-injection markers on the path
	// (EvFault, EvRetry); the per-span breakdown is in BySpan. Both zero on a
	// healthy run.
	Faults  int
	Retries int
	// Unattributed is path wall time not covered by any event (gaps);
	// ~zero in a well-formed trace, reported so it cannot hide.
	Unattributed float64
}

// PathTime returns the path's total duration, Makespan - Start.
func (cp *CriticalPath) PathTime() float64 { return cp.Makespan - cp.Start }

// isLeaf reports whether an event occupies (or marks) processor time, as
// opposed to the span bracket markers.
func isLeaf(k machine.EventKind) bool {
	return k != machine.EvSpanBegin && k != machine.EvSpanEnd
}

// ComputeCriticalPath analyses a run's events (typically
// Collector.Events()). It returns nil for an empty trace.
func ComputeCriticalPath(evs []machine.Event) *CriticalPath {
	t := NewTimeline(evs)
	n := len(t.Events)
	if n == 0 {
		return nil
	}

	// Per-processor leaf sequences, in program order.
	procLeaves := map[int][]int{}
	pos := make([]int, n) // position of event i within its processor's leaf list
	for i, e := range t.Events {
		if !isLeaf(e.Kind) {
			continue
		}
		pos[i] = len(procLeaves[e.Proc])
		procLeaves[e.Proc] = append(procLeaves[e.Proc], i)
	}

	// Index every send by its edge identity, so a receive finds exactly the
	// send of its own message — even in a sampled trace, where counting kept
	// sends and kept receives would pair different messages.
	type edge struct {
		src, dst int
		seq      int64
	}
	sends := map[edge]int{}
	for i, e := range t.Events {
		if e.Kind == machine.EvSend {
			sends[edge{e.Proc, e.Peer, e.PairSeq}] = i
		}
	}
	procIDs := make([]int, 0, len(procLeaves))
	for pr := range procLeaves {
		procIDs = append(procIDs, pr)
	}
	sort.Ints(procIDs)

	// Terminal event: the leaf with the maximum end time; ties resolved to
	// the lowest processor, then the latest event in program order.
	cur := -1
	for _, pr := range procIDs {
		for _, i := range procLeaves[pr] {
			if cur == -1 {
				cur = i
				continue
			}
			a, b := t.Events[i], t.Events[cur]
			if a.End > b.End || (a.End == b.End && (a.Proc < b.Proc || (a.Proc == b.Proc && a.Seq > b.Seq))) {
				cur = i
			}
		}
	}

	cp := &CriticalPath{Makespan: t.Events[cur].End}
	byKind := map[string]float64{}
	bySpan := map[string]*SpanTime{}
	spanOf := func(label string) *SpanTime {
		st := bySpan[label]
		if st == nil {
			st = &SpanTime{Label: label}
			bySpan[label] = st
		}
		return st
	}
	addSpan := func(label string, d float64) {
		st := spanOf(label)
		st.Time += d
		st.Steps++
	}
	procSeen := map[int]bool{}
	covered := 0.0

	for cur >= 0 {
		e := t.Events[cur]
		cp.Steps++
		procSeen[e.Proc] = true
		cp.Start = e.Start

		// A wait interval means the binding constraint was the message's
		// arrival: the path leaves this processor and continues through the
		// matching send on the peer, crossing the wire. The wait's own
		// duration is covered by the sender's timeline plus network time.
		if e.Kind == machine.EvWait {
			// The recv marker for this wait is the next event in program
			// order (machine.Proc.Recv records wait, then the marker), so it
			// is the next leaf and carries the next sequence number.
			leaves := procLeaves[e.Proc]
			if p := pos[cur]; p+1 < len(leaves) {
				re := t.Events[leaves[p+1]]
				send, ok := sends[edge{re.Peer, re.Proc, re.PairSeq}]
				if re.Kind == machine.EvRecv && re.Peer == e.Peer && re.Seq == e.Seq+1 && ok {
					net := e.End - t.Events[send].End
					if net < 0 {
						net = 0
					}
					byKind["network"] += net
					addSpan("(network)", net)
					covered += net
					cp.Hops++
					cur = send
					continue
				}
			}
			// No matching send recorded (e.g. partial trace): account the
			// wait itself and continue on this processor.
		}

		// Fault-injection markers are on the path even when zero-duration:
		// attribute them to their owning span so a chaotic run's report names
		// the cause, not just the kinds of time.
		if e.Kind == machine.EvFault || e.Kind == machine.EvRetry {
			label := t.OwnerLabel(cur)
			if label == "" {
				label = "(untracked)"
			}
			st := spanOf(label)
			if e.Kind == machine.EvFault {
				cp.Faults++
				st.Faults++
			} else {
				cp.Retries++
				st.Retries++
			}
		}

		if d := e.End - e.Start; d > 0 {
			byKind[e.Kind.String()] += d
			label := t.OwnerLabel(cur)
			if label == "" {
				label = "(untracked)"
			}
			addSpan(label, d)
			covered += d
		}
		if p := pos[cur]; p > 0 {
			cur = procLeaves[e.Proc][p-1]
		} else {
			cur = -1
		}
	}

	cp.Unattributed = cp.PathTime() - covered
	if cp.Unattributed < 1e-12 && cp.Unattributed > -1e-12 {
		cp.Unattributed = 0
	}
	for pr := range procSeen {
		cp.Procs = append(cp.Procs, pr)
	}
	sort.Ints(cp.Procs)
	for k, v := range byKind {
		cp.ByKind = append(cp.ByKind, KindTime{Kind: k, Time: v})
	}
	sort.Slice(cp.ByKind, func(i, j int) bool {
		if cp.ByKind[i].Time != cp.ByKind[j].Time {
			return cp.ByKind[i].Time > cp.ByKind[j].Time
		}
		return cp.ByKind[i].Kind < cp.ByKind[j].Kind
	})
	for _, st := range bySpan {
		cp.BySpan = append(cp.BySpan, *st)
	}
	sort.Slice(cp.BySpan, func(i, j int) bool {
		if cp.BySpan[i].Time != cp.BySpan[j].Time {
			return cp.BySpan[i].Time > cp.BySpan[j].Time
		}
		return cp.BySpan[i].Label < cp.BySpan[j].Label
	})
	return cp
}

// WriteReport prints the critical path breakdown in a fixed, deterministic
// text format.
func (cp *CriticalPath) WriteReport(w io.Writer) {
	if cp == nil {
		fmt.Fprintln(w, "critical path: no events")
		return
	}
	total := cp.PathTime()
	fmt.Fprintf(w, "critical path: %.6f s (t=%.6f .. %.6f), %d steps, %d hops, %d processors\n",
		total, cp.Start, cp.Makespan, cp.Steps, cp.Hops, len(cp.Procs))
	if cp.Faults > 0 || cp.Retries > 0 {
		fmt.Fprintf(w, "  faults on path: %d faults, %d retries\n", cp.Faults, cp.Retries)
	}
	pct := func(v float64) float64 {
		if total <= 0 {
			return 0
		}
		return 100 * v / total
	}
	fmt.Fprintf(w, "  by kind:\n")
	for _, kt := range cp.ByKind {
		fmt.Fprintf(w, "    %-10s %12.6f s %6.1f%%\n", kt.Kind, kt.Time, pct(kt.Time))
	}
	fmt.Fprintf(w, "  by span (innermost attribution):\n")
	for _, st := range cp.BySpan {
		fmt.Fprintf(w, "    %-40s %12.6f s %6.1f%%  (%d steps)", st.Label, st.Time, pct(st.Time), st.Steps)
		if st.Faults > 0 || st.Retries > 0 {
			fmt.Fprintf(w, "  [%d faults, %d retries]", st.Faults, st.Retries)
		}
		fmt.Fprintln(w)
	}
	if cp.Unattributed != 0 {
		fmt.Fprintf(w, "  unattributed: %.6f s\n", cp.Unattributed)
	}
}
