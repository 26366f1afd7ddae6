// Package trace collects and renders virtual-time execution traces of
// simulated runs: what every processor was doing (computing, sending,
// waiting, doing I/O) at each moment. The ASCII Gantt rendering makes
// pipelined task parallelism visible — the staggered compute bands of a
// data parallel pipeline look exactly like the module diagrams of Figure 5.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fxpar/internal/machine"
)

// collectorShards is the number of independent append buffers a Collector
// stripes events over (indexed by event processor id). One global mutex was
// contended by every processor goroutine on large machines; striping makes
// recording scale with the host while keeping the zero value ready to use.
const collectorShards = 64

// collectorShard is one stripe of a Collector's event buffer.
type collectorShard struct {
	mu     sync.Mutex
	events []machine.Event
}

// Collector accumulates events from a traced run. It is safe for concurrent
// use by processor goroutines. The zero value is ready to use.
type Collector struct {
	shards [collectorShards]collectorShard
	// dirty marks that events were recorded since the last Events() call;
	// the sorted view is cached until then, because one profiling pass
	// (metrics, critical path, Gantt) reads it several times.
	dirty   atomic.Bool
	cacheMu sync.Mutex
	cache   []machine.Event
}

var _ machine.Tracer = (*Collector)(nil)

// Record implements machine.Tracer.
func (c *Collector) Record(e machine.Event) {
	sh := &c.shards[shardIndex(e.Proc)]
	sh.mu.Lock()
	sh.events = append(sh.events, e)
	sh.mu.Unlock()
	c.dirty.Store(true)
}

// shardIndex maps a processor id (possibly negative in hand-built fixtures)
// to its stripe.
func shardIndex(proc int) int {
	if proc < 0 {
		proc = -proc
	}
	return proc % collectorShards
}

// SortEvents orders events in place by (processor, sequence number) —
// per-processor program order, which is deterministic regardless of
// recording interleaving. Events recorded without sequence numbers
// (hand-built test fixtures) fall back to (start, end) order. It is the
// canonical order of Events() and of every post-hoc analysis.
func SortEvents(evs []machine.Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Proc != evs[j].Proc {
			return evs[i].Proc < evs[j].Proc
		}
		if evs[i].Seq != evs[j].Seq {
			return evs[i].Seq < evs[j].Seq
		}
		if evs[i].Start != evs[j].Start {
			return evs[i].Start < evs[j].Start
		}
		return evs[i].End < evs[j].End
	})
}

// Events returns the recorded events sorted by (processor, sequence number):
// per-processor program order, deterministic regardless of recording
// interleaving. The sorted view is cached until the next Record, so the
// repeated calls of one profiling pass (metrics, critical path, Gantt) sort
// only once. Callers must treat the returned slice as read-only; it is
// shared between calls.
func (c *Collector) Events() []machine.Event {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	if c.cache != nil && !c.dirty.Load() {
		return c.cache
	}
	c.dirty.Store(false)
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.events)
		sh.mu.Unlock()
	}
	out := make([]machine.Event, 0, n)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		out = append(out, sh.events...)
		sh.mu.Unlock()
	}
	SortEvents(out)
	c.cache = out
	return out
}

// Len returns the number of recorded events.
func (c *Collector) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.events)
		sh.mu.Unlock()
	}
	return n
}

// Span returns the [min start, max end] of all events (0,0 when empty). The
// extrema are computed in one pass over the shards — no copy, no sort.
func (c *Collector) Span() (start, end float64) {
	first := true
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.events {
			if first {
				start, end = e.Start, e.End
				first = false
				continue
			}
			if e.Start < start {
				start = e.Start
			}
			if e.End > end {
				end = e.End
			}
		}
		sh.mu.Unlock()
	}
	if first {
		return 0, 0
	}
	return start, end
}

// glyph maps an event kind to its Gantt character.
func glyph(k machine.EventKind) byte {
	switch k {
	case machine.EvCompute:
		return '#'
	case machine.EvSend:
		return 's'
	case machine.EvWait:
		return '.'
	case machine.EvIO:
		return 'I'
	case machine.EvRecv:
		return 'r'
	case machine.EvFault:
		return 'F'
	case machine.EvRetry:
		return 'R'
	}
	return '?'
}

// Gantt renders the trace as one row per processor over a fixed-width time
// axis. Within a time bucket the kind occupying the most time wins; idle
// (untracked) time renders as a space.
func Gantt(w io.Writer, c *Collector, procs int, width int) {
	if width < 10 {
		width = 10
	}
	start, end := c.Span()
	if end <= start {
		fmt.Fprintln(w, "trace: no events")
		return
	}
	scale := float64(width) / (end - start)
	// occupancy[proc][bucket][kind] = time
	rows := make([][]map[machine.EventKind]float64, procs)
	for i := range rows {
		rows[i] = make([]map[machine.EventKind]float64, width)
	}
	for _, e := range c.Events() {
		if e.Proc >= procs {
			continue
		}
		b0 := int((e.Start - start) * scale)
		b1 := int((e.End - start) * scale)
		if b1 >= width {
			b1 = width - 1
		}
		for b := b0; b <= b1; b++ {
			lo := start + float64(b)/scale
			hi := start + float64(b+1)/scale
			olo, ohi := maxF(lo, e.Start), minF(hi, e.End)
			if ohi <= olo {
				continue
			}
			if rows[e.Proc][b] == nil {
				rows[e.Proc][b] = map[machine.EventKind]float64{}
			}
			rows[e.Proc][b][e.Kind] += ohi - olo
		}
	}
	fmt.Fprintf(w, "time %.6fs .. %.6fs   (# compute, s send, . wait, I io, space idle)\n", start, end)
	for pr := 0; pr < procs; pr++ {
		var sb strings.Builder
		for b := 0; b < width; b++ {
			occ := rows[pr][b]
			if len(occ) == 0 {
				sb.WriteByte(' ')
				continue
			}
			var bestK machine.EventKind
			bestT := -1.0
			for k, t := range occ {
				if t > bestT || (t == bestT && k < bestK) {
					bestK, bestT = k, t
				}
			}
			sb.WriteByte(glyph(bestK))
		}
		fmt.Fprintf(w, "p%02d |%s|\n", pr, sb.String())
	}
}

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing, Perfetto): complete events ("ph":"X") for leaf
// intervals and duration events ("ph":"B"/"E") for named spans, with
// microsecond timestamps.
type chromeEvent struct {
	Name  string           `json:"name"`
	Ph    string           `json:"ph"`
	Scope string           `json:"s,omitempty"` // instant-event scope ("t")
	Ts    float64          `json:"ts"`          // microseconds
	Dur   float64          `json:"dur"`         // microseconds (0 for B/E markers)
	Pid   int              `json:"pid"`
	Tid   int              `json:"tid"`
	Args  map[string]int64 `json:"args,omitempty"`
}

// WriteChromeTrace exports the trace in the Chrome trace-event JSON format,
// loadable in chrome://tracing or Perfetto: one timeline row per simulated
// processor, one complete event per recorded interval, and nested named
// span tracks ("B"/"E" pairs labelled with subgroup identity) for fx task
// regions, ON blocks and comm collectives. Send/recv/wait/io events carry
// their peer and byte count as args. Timestamps are virtual microseconds.
func WriteChromeTrace(w io.Writer, c *Collector) error {
	evs := c.Events()
	out := make([]chromeEvent, 0, len(evs))
	for _, e := range evs {
		ce := chromeEvent{
			Name: e.Kind.String(),
			Ph:   "X",
			Ts:   e.Start * 1e6,
			Dur:  (e.End - e.Start) * 1e6,
			Pid:  0,
			Tid:  e.Proc,
		}
		switch e.Kind {
		case machine.EvSpanBegin:
			ce.Name, ce.Ph, ce.Dur = e.Label, "B", 0
		case machine.EvSpanEnd:
			ce.Name, ce.Ph, ce.Dur = e.Label, "E", 0
		case machine.EvSend, machine.EvRecv, machine.EvWait:
			ce.Args = map[string]int64{"peer": int64(e.Peer), "bytes": int64(e.Bytes)}
		case machine.EvIO:
			if e.Bytes != 0 {
				ce.Args = map[string]int64{"bytes": int64(e.Bytes)}
			}
		case machine.EvFault:
			// Zero-duration chaos markers render as thread-scoped instants
			// so Perfetto draws them as flags on the processor's row.
			ce.Name, ce.Ph, ce.Scope = "fault:"+e.Label, "i", "t"
			ce.Args = map[string]int64{"peer": int64(e.Peer), "bytes": int64(e.Bytes)}
		case machine.EvRetry:
			ce.Name, ce.Ph, ce.Scope = "retry", "i", "t"
			ce.Args = map[string]int64{"peer": int64(e.Peer)}
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
