package trace

// Online aggregation sinks: tracers that fold the event stream into fixed-
// size summaries as it is produced, instead of retaining every event for a
// post-hoc pass. Memory is O(processors + communicating pairs) no matter how
// long the run, which is what a 1024-processor campaign needs. State is
// sharded per processor — each cell is only ever written by its own
// processor goroutine, so recording never contends — and because all
// accumulation is per-processor until Snapshot merges the cells in processor
// order, the results are byte-identical to the same folds computed post-hoc
// from Collector.Events() (which is per-processor program order).

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fxpar/internal/forkjoin"
	"fxpar/internal/machine"
)

// parallelSnapshotMin is the processor count from which sink snapshots fold
// their per-processor cells in parallel. All folded quantities are integers
// or min/max, so the grouping cannot change the result — parallelism here
// is free of determinism risk.
const parallelSnapshotMin = 4096

// snapshotRanges runs fn over contiguous chunks tiling [0, n): one inline
// chunk below parallelSnapshotMin, else one concurrent chunk per core (at
// most 16).
func snapshotRanges(n int, fn func(lo, hi int)) {
	chunks := 1
	if n >= parallelSnapshotMin {
		chunks = min(max(runtime.GOMAXPROCS(0), 1), 16)
	}
	size := (n + chunks - 1) / chunks
	forkjoin.For(chunks, 1, func(a, b int) {
		for c := a; c < b; c++ {
			fn(min(c*size, n), min((c+1)*size, n))
		}
	})
}

// ProcUtil is one processor's accumulated virtual time per activity.
type ProcUtil struct {
	Compute float64 `json:"compute"`
	Send    float64 `json:"send"`
	Wait    float64 `json:"wait"`
	IO      float64 `json:"io"`
	Events  int64   `json:"events"`
}

// utilCell is the per-processor accumulator of a UtilSink. Only the owning
// processor goroutine writes it; the mutex exists so Snapshot can read a
// consistent cell mid-run.
type utilCell struct {
	mu    sync.Mutex
	u     ProcUtil
	start float64
	end   float64
	seen  bool
}

// UtilSink streams per-processor utilization: compute/send/wait/IO time and
// the trace's virtual-time extent, in O(procs) memory.
type UtilSink struct {
	cells   []utilCell
	dropped atomic.Int64
}

var _ machine.Tracer = (*UtilSink)(nil)

// NewUtilSink returns a sink for a machine of the given processor count.
func NewUtilSink(procs int) *UtilSink {
	return &UtilSink{cells: make([]utilCell, procs)}
}

// Record implements machine.Tracer.
func (s *UtilSink) Record(e machine.Event) {
	if e.Proc < 0 || e.Proc >= len(s.cells) {
		s.dropped.Add(1)
		return
	}
	c := &s.cells[e.Proc]
	d := e.End - e.Start
	c.mu.Lock()
	c.u.Events++
	if !c.seen {
		c.start, c.end, c.seen = e.Start, e.End, true
	} else {
		if e.Start < c.start {
			c.start = e.Start
		}
		if e.End > c.end {
			c.end = e.End
		}
	}
	switch e.Kind {
	case machine.EvCompute:
		c.u.Compute += d
	case machine.EvSend:
		c.u.Send += d
	case machine.EvWait:
		c.u.Wait += d
	case machine.EvIO:
		c.u.IO += d
	}
	c.mu.Unlock()
}

// UtilSnapshot is a point-in-time view of a UtilSink.
type UtilSnapshot struct {
	PerProc []ProcUtil `json:"perProc"`
	Start   float64    `json:"start"`
	End     float64    `json:"end"`
	// Dropped counts events whose processor id was outside the sink's
	// configured range.
	Dropped int64 `json:"dropped"`
}

// utilExtent is one shard range's virtual-time extent.
type utilExtent struct {
	start, end float64
	seen       bool
}

func (a *utilExtent) fold(b utilExtent) {
	if !b.seen {
		return
	}
	if !a.seen {
		*a = b
		return
	}
	if b.start < a.start {
		a.start = b.start
	}
	if b.end > a.end {
		a.end = b.end
	}
}

// Snapshot merges the per-processor cells in processor order. Safe to call
// mid-run; a mid-run snapshot is internally consistent per processor. At
// parallelSnapshotMin processors and beyond the per-cell copies run as a
// parallel range merge — each processor's row is independent and the trace
// extent is a min/max fold, so the result is identical either way.
func (s *UtilSink) Snapshot() UtilSnapshot {
	out := UtilSnapshot{PerProc: make([]ProcUtil, len(s.cells)), Dropped: s.dropped.Load()}
	var mu sync.Mutex
	var total utilExtent
	snapshotRanges(len(s.cells), func(lo, hi int) {
		var ext utilExtent
		for i := lo; i < hi; i++ {
			c := &s.cells[i]
			c.mu.Lock()
			out.PerProc[i] = c.u
			ext.fold(utilExtent{start: c.start, end: c.end, seen: c.seen})
			c.mu.Unlock()
		}
		mu.Lock()
		total.fold(ext)
		mu.Unlock()
	})
	if total.seen {
		out.Start, out.End = total.start, total.end
	}
	return out
}

// WriteText renders per-processor busy/wait fractions of the trace's
// virtual-time extent, one row per processor.
func (s UtilSnapshot) WriteText(w io.Writer) {
	total := s.End - s.Start
	if total <= 0 {
		fmt.Fprintln(w, "trace: no events")
		return
	}
	fmt.Fprintf(w, "%5s %9s %9s %9s %9s\n", "proc", "compute", "send", "wait", "io")
	for pr, u := range s.PerProc {
		fmt.Fprintf(w, "p%04d %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
			pr, u.Compute/total*100, u.Send/total*100, u.Wait/total*100, u.IO/total*100)
	}
}

// CommEdge is one ordered (src, dst) cell of the communication matrix.
type CommEdge struct {
	Src        int   `json:"src"`
	Dst        int   `json:"dst"`
	MsgsSent   int64 `json:"msgsSent"`
	BytesSent  int64 `json:"bytesSent"`
	MsgsRecvd  int64 `json:"msgsRecvd"`
	BytesRecvd int64 `json:"bytesRecvd"`
}

type commCounts struct {
	msgsSent, bytesSent, msgsRecvd, bytesRecvd int64
}

// commShard holds the matrix cells recorded by one processor: sends keyed by
// (proc, peer), receive markers keyed by (peer, proc). One pair's sent and
// received counts may live in different shards (sender's and receiver's);
// Snapshot merges them. A map keeps total matrix memory O(active pairs)
// instead of O(P^2) — the property the P=4096 memory guard test pins.
type commShard struct {
	mu    sync.Mutex
	cells map[[2]int]*commCounts
}

// CommMatrix streams the (src, dst) communication matrix — message and byte
// counts per ordered processor pair — in O(pairs actually used) memory.
type CommMatrix struct {
	procs   int
	shards  []commShard
	dropped atomic.Int64
}

var _ machine.Tracer = (*CommMatrix)(nil)

// NewCommMatrix returns a matrix sink for a machine of the given size.
func NewCommMatrix(procs int) *CommMatrix {
	return &CommMatrix{procs: procs, shards: make([]commShard, procs)}
}

// Record implements machine.Tracer. Only EvSend and EvRecv events touch the
// matrix; everything else is ignored.
func (m *CommMatrix) Record(e machine.Event) {
	if e.Kind != machine.EvSend && e.Kind != machine.EvRecv {
		return
	}
	if e.Proc < 0 || e.Proc >= len(m.shards) || e.Peer < 0 || e.Peer >= m.procs {
		m.dropped.Add(1)
		return
	}
	sh := &m.shards[e.Proc]
	sh.mu.Lock()
	var key [2]int
	if e.Kind == machine.EvSend {
		key = [2]int{e.Proc, e.Peer}
	} else {
		key = [2]int{e.Peer, e.Proc}
	}
	if sh.cells == nil {
		sh.cells = make(map[[2]int]*commCounts)
	}
	c := sh.cells[key]
	if c == nil {
		c = &commCounts{}
		sh.cells[key] = c
	}
	if e.Kind == machine.EvSend {
		c.msgsSent++
		c.bytesSent += int64(e.Bytes)
	} else {
		c.msgsRecvd++
		c.bytesRecvd += int64(e.Bytes)
	}
	sh.mu.Unlock()
}

// mergeInto folds one shard's cells into the accumulator map.
func (sh *commShard) mergeInto(merged map[[2]int]*CommEdge) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for key, c := range sh.cells {
		e := merged[key]
		if e == nil {
			e = &CommEdge{Src: key[0], Dst: key[1]}
			merged[key] = e
		}
		e.MsgsSent += c.msgsSent
		e.BytesSent += c.bytesSent
		e.MsgsRecvd += c.msgsRecvd
		e.BytesRecvd += c.bytesRecvd
	}
}

// Snapshot merges the shards into edges sorted by (src, dst). Counts are
// integers, so the result is exact regardless of recording interleaving —
// and regardless of merge grouping, which lets large matrices merge their
// shards in parallel (each goroutine folds a contiguous shard range into a
// partial map, the partials fold into one) with no effect on the output.
func (m *CommMatrix) Snapshot() []CommEdge {
	var mu sync.Mutex
	var merged map[[2]int]*CommEdge
	snapshotRanges(len(m.shards), func(lo, hi int) {
		part := map[[2]int]*CommEdge{}
		for i := lo; i < hi; i++ {
			m.shards[i].mergeInto(part)
		}
		mu.Lock()
		defer mu.Unlock()
		if merged == nil {
			merged = part
			return
		}
		for key, c := range part {
			e := merged[key]
			if e == nil {
				merged[key] = c
				continue
			}
			e.MsgsSent += c.MsgsSent
			e.BytesSent += c.BytesSent
			e.MsgsRecvd += c.MsgsRecvd
			e.BytesRecvd += c.BytesRecvd
		}
	})
	out := make([]CommEdge, 0, len(merged))
	for _, e := range merged {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// TopCommEdges returns the k heaviest edges by total byte traffic
// (sent + received), ties broken by (src, dst) so the selection is
// deterministic. k <= 0 or k >= len(edges) returns all edges (re-ordered).
// fxprof uses it to render a bounded matrix at large P.
func TopCommEdges(edges []CommEdge, k int) []CommEdge {
	ordered := append([]CommEdge(nil), edges...)
	sort.Slice(ordered, func(i, j int) bool {
		bi := ordered[i].BytesSent + ordered[i].BytesRecvd
		bj := ordered[j].BytesSent + ordered[j].BytesRecvd
		if bi != bj {
			return bi > bj
		}
		if ordered[i].Src != ordered[j].Src {
			return ordered[i].Src < ordered[j].Src
		}
		return ordered[i].Dst < ordered[j].Dst
	})
	if k > 0 && k < len(ordered) {
		ordered = ordered[:k]
	}
	return ordered
}

// WriteCommMatrix renders the edges as an aligned table, heaviest byte
// traffic first (ties by src, dst).
func WriteCommMatrix(w io.Writer, edges []CommEdge) {
	if len(edges) == 0 {
		fmt.Fprintln(w, "trace: no communication")
		return
	}
	ordered := append([]CommEdge(nil), edges...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].BytesSent != ordered[j].BytesSent {
			return ordered[i].BytesSent > ordered[j].BytesSent
		}
		if ordered[i].Src != ordered[j].Src {
			return ordered[i].Src < ordered[j].Src
		}
		return ordered[i].Dst < ordered[j].Dst
	})
	fmt.Fprintf(w, "%5s %5s %9s %12s %9s %12s\n", "src", "dst", "msgs", "bytes", "recvd", "recvdBytes")
	for _, e := range ordered {
		fmt.Fprintf(w, "p%04d p%04d %9d %12d %9d %12d\n",
			e.Src, e.Dst, e.MsgsSent, e.BytesSent, e.MsgsRecvd, e.BytesRecvd)
	}
}
