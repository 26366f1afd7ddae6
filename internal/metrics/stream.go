package metrics

// Streaming aggregation: the same per-(group, operation) registry the
// tests' post-hoc FromTrace replay produces, maintained online as the run emits
// events, in O(procs + groups) memory — no event slice is ever retained.
//
// Byte-identical snapshots are guaranteed by construction, not by luck: all
// accumulation is per-processor (each processor's events arrive in program
// order, whether live from its goroutine or post-hoc from a sorted slice),
// and a snapshot merges the per-processor partial registries in ascending
// processor order. FromTrace is implemented on exactly this code — it
// replays the sorted event slice into a StreamSink — so the online and
// post-hoc paths cannot drift apart, down to float-summation associativity.

import (
	"sync"
	"sync/atomic"

	"fxpar/internal/forkjoin"
	"fxpar/internal/machine"
)

// frame is one open span on a processor's stack: where it started and the
// pre-resolved registry cell its closure will credit.
type frame struct {
	start float64
	cell  *OpMetrics
}

// procState folds one processor's event stream into a partial registry,
// totals included (Procs is 1 once the processor has an event; SpanKinds is
// set by the merge). It is single-writer: only the owning processor
// goroutine (or FromTrace's replay) feeds it.
type procState struct {
	reg  *Registry
	root *OpMetrics
	// cells caches label -> cell so steady-state span traffic does not
	// re-split labels or re-build map keys (zero allocations per event).
	cells map[string]*OpMetrics
	stack []frame
}

func newProcState() *procState {
	return &procState{reg: NewRegistry(), cells: make(map[string]*OpMetrics)}
}

// rootCell returns (creating on first use) the ("(root)", "(program)") cell
// for events outside every span.
func (st *procState) rootCell() *OpMetrics {
	if st.root == nil {
		st.root = st.reg.Op("(root)", "(program)")
	}
	return st.root
}

// feed folds one event. Events must arrive in the processor's program order.
func (st *procState) feed(e machine.Event) {
	tot := &st.reg.totals
	tot.Procs = 1
	tot.Events++
	if e.End > tot.Makespan {
		tot.Makespan = e.End
	}
	switch e.Kind {
	case machine.EvSpanBegin:
		if len(st.stack) == 0 {
			// Top-level span markers are attributed to the root scope, which
			// materializes the root cell exactly as the post-hoc owner walk did.
			st.rootCell()
		}
		cell := st.cells[e.Label]
		if cell == nil {
			cell = st.reg.Op(keyOf(e.Label))
			st.cells[e.Label] = cell
		}
		st.stack = append(st.stack, frame{start: e.Start, cell: cell})
	case machine.EvSpanEnd:
		if len(st.stack) == 0 {
			st.rootCell() // unmatched end: owned by the root scope
			return
		}
		f := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		d := e.Start - f.start
		f.cell.Spans++
		f.cell.Time += d
		f.cell.Dur.Add(d)
	default:
		m := st.rootCell()
		if len(st.stack) > 0 {
			m = st.stack[len(st.stack)-1].cell
		}
		d := e.End - e.Start
		switch e.Kind {
		case machine.EvCompute:
			m.Compute += d
			tot.Compute += d
		case machine.EvWait:
			m.Wait += d
			tot.Wait += d
		case machine.EvSend:
			m.Send += d
			m.MsgsSent++
			m.BytesSent += int64(e.Bytes)
			tot.Send += d
			tot.Msgs++
			tot.Bytes += int64(e.Bytes)
		case machine.EvRecv:
			m.MsgsRecvd++
			m.BytesRecvd += int64(e.Bytes)
		case machine.EvIO:
			m.IO += d
			tot.IO += d
		case machine.EvFault:
			m.Faults++
			tot.Faults++
		case machine.EvRetry:
			m.Retries++
			tot.Retries++
		}
	}
}

// The merge topology. A flat left fold over P partials costs O(P) sequential
// registry merges on the snapshot path; at P=65536 that dominates snapshot
// latency. Instead both pipelines merge through the same fixed tree: the
// partials of processors that saw events are compacted (ascending processor
// order), folded sequentially into leaves of mergeChunk consecutive partials,
// and the leaves are merged pairwise until one registry remains — O(log P)
// levels, with the pair merges of wide levels running in parallel. The
// topology is a pure function of the compacted partial sequence, never of
// processor count, host parallelism, or which level ran on which goroutine,
// so float sums group identically online (StreamSink.Registry) and post-hoc
// (FromTrace) and the byte-identity contract between them survives scale.
const (
	// mergeChunk is the leaf width: partials per sequential leaf fold.
	mergeChunk = 8
	// mergeParallelMin is the leaf count above which tree levels fan out to
	// one goroutine per pair; below it the coordination costs more than the
	// merges.
	mergeParallelMin = 16
)

// mergeRegistries folds src into dst: per-key cell additions plus totals.
// Makespan folds by max, so it commutes and associates exactly; the float
// sums are grouped by the fixed tree.
func mergeRegistries(dst, src *Registry) {
	for k, m := range src.ops {
		d := dst.ops[k]
		if d == nil {
			d = &OpMetrics{Group: m.Group, Op: m.Op}
			dst.ops[k] = d
		}
		d.Spans += m.Spans
		d.Time += m.Time
		d.Compute += m.Compute
		d.Wait += m.Wait
		d.Send += m.Send
		d.IO += m.IO
		d.MsgsSent += m.MsgsSent
		d.BytesSent += m.BytesSent
		d.MsgsRecvd += m.MsgsRecvd
		d.BytesRecvd += m.BytesRecvd
		d.Faults += m.Faults
		d.Retries += m.Retries
		for i := range d.Dur.Buckets {
			d.Dur.Buckets[i] += m.Dur.Buckets[i]
		}
	}
	dst.totals.Compute += src.totals.Compute
	dst.totals.Wait += src.totals.Wait
	dst.totals.Send += src.totals.Send
	dst.totals.IO += src.totals.IO
	dst.totals.Msgs += src.totals.Msgs
	dst.totals.Bytes += src.totals.Bytes
	dst.totals.Faults += src.totals.Faults
	dst.totals.Retries += src.totals.Retries
	dst.totals.Events += src.totals.Events
	dst.totals.Procs += src.totals.Procs
	if src.totals.Makespan > dst.totals.Makespan {
		dst.totals.Makespan = src.totals.Makespan
	}
}

// mergeTree reduces leaf registries pairwise — leaf i merges with leaf i+1,
// the winners pair again — until one remains. Pairs within a level are
// independent, so wide levels run them concurrently; the grouping (and hence
// every float sum) is fixed by leaf position alone.
func mergeTree(leaves []*Registry) *Registry {
	if len(leaves) == 0 {
		return NewRegistry()
	}
	for len(leaves) > 1 {
		next := make([]*Registry, 0, (len(leaves)+1)/2)
		pairs := len(leaves) / 2
		grain := pairs // a narrow level merges inline
		if pairs >= mergeParallelMin/2 {
			grain = 1
		}
		forkjoin.For(pairs, grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				mergeRegistries(leaves[2*i], leaves[2*i+1])
			}
		})
		for i := 0; i < pairs; i++ {
			next = append(next, leaves[2*i])
		}
		if len(leaves)%2 == 1 {
			next = append(next, leaves[len(leaves)-1])
		}
		leaves = next
	}
	return leaves[0]
}

// streamShard pairs a processor's fold state with the mutex that lets
// Snapshot read it mid-run. The owning processor goroutine is the only
// writer, so the lock is uncontended on the record path.
type streamShard struct {
	mu sync.Mutex
	st *procState
}

// StreamSink is a machine.Tracer that maintains the per-(group, operation)
// registry online. Its Snapshot is byte-identical to
// FromTrace(collector.Events()).Snapshot() for the same run, while retaining
// no events: memory is O(procs + distinct (group, op) keys).
type StreamSink struct {
	shards  []streamShard
	dropped atomic.Int64
}

var _ machine.Tracer = (*StreamSink)(nil)

// NewStreamSink returns a sink for a machine of the given processor count.
func NewStreamSink(procs int) *StreamSink {
	s := &StreamSink{shards: make([]streamShard, procs)}
	for i := range s.shards {
		s.shards[i].st = newProcState()
	}
	return s
}

// Record implements machine.Tracer. Events whose processor id is outside
// [0, procs) are counted in Dropped and otherwise ignored.
func (s *StreamSink) Record(e machine.Event) {
	if e.Proc < 0 || e.Proc >= len(s.shards) {
		s.dropped.Add(1)
		return
	}
	sh := &s.shards[e.Proc]
	sh.mu.Lock()
	sh.st.feed(e)
	sh.mu.Unlock()
}

// Dropped returns the number of events ignored for an out-of-range
// processor id.
func (s *StreamSink) Dropped() int64 { return s.dropped.Load() }

// Registry merges the per-processor partials into a full registry. Safe to
// call mid-run: each processor's partial is read under its lock (the result
// is then a causally consistent per-processor prefix, not a global cut).
// The leaf folds and the pairwise tree above them are the same fixed
// topology FromTrace uses, so the two pipelines stay byte-identical.
func (s *StreamSink) Registry() *Registry {
	var leaves []*Registry
	var leaf *Registry
	inLeaf := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.st.reg.totals.Events > 0 {
			if inLeaf == 0 {
				leaf = NewRegistry()
				leaves = append(leaves, leaf)
			}
			mergeRegistries(leaf, sh.st.reg)
			if inLeaf++; inLeaf == mergeChunk {
				inLeaf = 0
			}
		}
		sh.mu.Unlock()
	}
	out := mergeTree(leaves)
	out.totals.SpanKinds = len(out.ops)
	return out
}

// Snapshot merges and materializes the registry in sorted order.
func (s *StreamSink) Snapshot() Snapshot { return s.Registry().Snapshot() }
