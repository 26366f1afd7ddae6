package trace

// Telemetry self-accounting: every sink can be wrapped in a meter that
// attributes its own host cost, and an OverheadBudget aggregates the meters
// into one report — "observability cost X% of the wall clock, N bytes
// allocated" — surfaced by fxprof, streamed by the campaign monitor, and
// gated in CI over the benchmark's traced run. The meter times one Record in every
// meterSampleEvery on each shard (a time.Now pair costs tens of
// nanoseconds; paying it on every event would itself violate the budget)
// and scales the sampled time by the full event count, so the estimate
// converges while the metering overhead stays near one atomic add per
// event.

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fxpar/internal/machine"
)

// meterSampleEvery is the per-shard timing sample period (a power of two so
// the test is a mask).
const meterSampleEvery = 64

// meterClampNS caps a single timed sample. The clock pair can straddle an
// OS descheduling or a GC pause thousands of times longer than the Record
// call it brackets, and with only a few thousand timed samples per run one
// such outlier would dominate the mean and report a wildly inflated
// estimate. Genuine sink work (a map rehash, a slice growth) stays orders
// of magnitude under this ceiling.
const meterClampNS = 50_000

// meterCell is one shard's counters, padded to a cache line so neighboring
// shards' meters don't false-share.
type meterCell struct {
	events  atomic.Int64
	timedNS atomic.Int64
	timed   atomic.Int64
	_       [5]int64
}

// MeteredSink wraps a Tracer and accounts the host time spent inside its
// Record calls. Sharded like the Collector: each processor's counter cell
// is effectively private to its goroutine, so the meter adds one
// uncontended atomic add per event (plus a clock pair on every
// meterSampleEvery-th call).
type MeteredSink struct {
	name  string
	inner machine.Tracer
	cells [collectorShards]meterCell
}

var _ machine.Tracer = (*MeteredSink)(nil)

// Record implements machine.Tracer.
func (ms *MeteredSink) Record(e machine.Event) {
	c := &ms.cells[shardIndex(e.Proc)]
	if c.events.Add(1)&(meterSampleEvery-1) != 1 {
		ms.inner.Record(e)
		return
	}
	t0 := time.Now()
	ms.inner.Record(e)
	ns := time.Since(t0).Nanoseconds()
	if ns > meterClampNS {
		ns = meterClampNS
	}
	c.timedNS.Add(ns)
	c.timed.Add(1)
}

// SinkCost is one metered sink's accounting.
type SinkCost struct {
	Name string `json:"name"`
	// Events is the number of Record calls the sink saw.
	Events int64 `json:"events"`
	// EstNS estimates the host nanoseconds spent inside the sink's Record:
	// mean sampled call time times the event count.
	EstNS int64 `json:"estNS"`
	// TimedCalls is how many calls contributed to the estimate.
	TimedCalls int64 `json:"timedCalls"`
}

// cost sums the shards into a SinkCost.
func (ms *MeteredSink) cost() SinkCost {
	out := SinkCost{Name: ms.name}
	var ns int64
	for i := range ms.cells {
		out.Events += ms.cells[i].events.Load()
		ns += ms.cells[i].timedNS.Load()
		out.TimedCalls += ms.cells[i].timed.Load()
	}
	if out.TimedCalls > 0 {
		out.EstNS = int64(float64(ns) / float64(out.TimedCalls) * float64(out.Events))
	}
	return out
}

// OverheadBudget aggregates metered sinks plus run-wide host accounting
// (wall time, allocation deltas) into one observability-cost report.
// Typical use: wrap every sink with Meter before building the Tee, call
// Start just before Machine.Run and Finish right after, then Report.
type OverheadBudget struct {
	mu      sync.Mutex
	sinks   []*MeteredSink
	sampler *Sampler

	started     time.Time
	running     bool
	wallNS      int64
	allocBytes  uint64
	mallocs     uint64
	startAllocs uint64
	startMall   uint64
}

// NewOverheadBudget returns an empty budget.
func NewOverheadBudget() *OverheadBudget { return &OverheadBudget{} }

// Meter wraps a sink so its Record cost is accounted under name. A nil sink
// returns nil, so optional sinks can be threaded without checks.
func (b *OverheadBudget) Meter(name string, t machine.Tracer) machine.Tracer {
	if t == nil || b == nil {
		return t
	}
	ms := &MeteredSink{name: name, inner: t}
	b.mu.Lock()
	b.sinks = append(b.sinks, ms)
	b.mu.Unlock()
	return ms
}

// SetSampler attaches the run's sampler so reports carry its rates and
// kept/dropped counts.
func (b *OverheadBudget) SetSampler(s *Sampler) {
	b.mu.Lock()
	b.sampler = s
	b.mu.Unlock()
}

// Start marks the beginning of the accounted run.
func (b *OverheadBudget) Start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.mu.Lock()
	b.started = time.Now()
	b.running = true
	b.startAllocs = ms.TotalAlloc
	b.startMall = ms.Mallocs
	b.mu.Unlock()
}

// Finish freezes the wall clock and allocation deltas.
func (b *OverheadBudget) Finish() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.mu.Lock()
	if b.running {
		b.wallNS = time.Since(b.started).Nanoseconds()
		b.allocBytes = ms.TotalAlloc - b.startAllocs
		b.mallocs = ms.Mallocs - b.startMall
		b.running = false
	}
	b.mu.Unlock()
}

// BudgetReport is a point-in-time view of an OverheadBudget.
type BudgetReport struct {
	// WallNS is the accounted run's host wall time (live value if the run
	// is still going).
	WallNS int64 `json:"wallNS"`
	// AllocBytes/Mallocs are the process-wide allocation deltas between
	// Start and Finish (0 while running; reading MemStats mid-run would
	// stop the world).
	AllocBytes uint64 `json:"allocBytes"`
	Mallocs    uint64 `json:"mallocs"`
	// Sinks lists each metered sink's cost, in Meter order.
	Sinks []SinkCost `json:"sinks"`
	// TotalEstNS sums the sink estimates; SinkSharePct is that as a
	// percentage of WallNS.
	TotalEstNS   int64   `json:"totalEstNS"`
	SinkSharePct float64 `json:"sinkSharePct"`
	// Sample is the sampler's snapshot, when one is attached.
	Sample *SampleSnapshot `json:"sample,omitempty"`
}

// Report assembles the current accounting. Safe to call mid-run (the
// campaign monitor polls it); wall time is then the live elapsed time.
func (b *OverheadBudget) Report() BudgetReport {
	b.mu.Lock()
	r := BudgetReport{WallNS: b.wallNS, AllocBytes: b.allocBytes, Mallocs: b.mallocs}
	if b.running {
		r.WallNS = time.Since(b.started).Nanoseconds()
	}
	sinks := append([]*MeteredSink(nil), b.sinks...)
	sampler := b.sampler
	b.mu.Unlock()
	for _, ms := range sinks {
		c := ms.cost()
		r.Sinks = append(r.Sinks, c)
		r.TotalEstNS += c.EstNS
	}
	if r.WallNS > 0 {
		r.SinkSharePct = float64(r.TotalEstNS) / float64(r.WallNS) * 100
	}
	if sampler != nil {
		snap := sampler.Snapshot()
		r.Sample = &snap
	}
	return r
}

// Line renders the compact single-line form used by the campaign monitor:
// sink share, per-sink breakdown, sample rates, dropped count.
func (r BudgetReport) Line() string {
	parts := make([]string, 0, len(r.Sinks))
	for _, s := range r.Sinks {
		pct := 0.0
		if r.WallNS > 0 {
			pct = float64(s.EstNS) / float64(r.WallNS) * 100
		}
		parts = append(parts, fmt.Sprintf("%s %.1f%%", s.Name, pct))
	}
	line := fmt.Sprintf("sinks %.1f%% host", r.SinkSharePct)
	if len(parts) > 0 {
		line += " (" + strings.Join(parts, ", ") + ")"
	}
	if r.Sample != nil {
		line += "  sampled " + r.Sample.RatesString()
		if r.Sample.Dropped > 0 {
			line += fmt.Sprintf("  dropped %d", r.Sample.Dropped)
		}
	}
	return line
}

// WriteText renders the full budget report.
func (r BudgetReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "wall %.3fs  telemetry est %.3fs (%.1f%%)",
		float64(r.WallNS)/1e9, float64(r.TotalEstNS)/1e9, r.SinkSharePct)
	if r.Mallocs > 0 {
		fmt.Fprintf(w, "  allocs %d (%.1f MB)", r.Mallocs, float64(r.AllocBytes)/1e6)
	}
	fmt.Fprintln(w)
	for _, s := range r.Sinks {
		pct := 0.0
		if r.WallNS > 0 {
			pct = float64(s.EstNS) / float64(r.WallNS) * 100
		}
		fmt.Fprintf(w, "  %-12s %12d events  est %9.3fms  %5.1f%%\n",
			s.Name, s.Events, float64(s.EstNS)/1e6, pct)
	}
	if r.Sample != nil && r.Sample.Sampled() {
		// One line, not the full per-kind table — consumers that want the
		// breakdown print SampleSnapshot.WriteText themselves.
		fmt.Fprintf(w, "  sampled: %s  kept %d  dropped %d\n",
			r.Sample.RatesString(), r.Sample.Kept, r.Sample.Dropped)
	}
}
