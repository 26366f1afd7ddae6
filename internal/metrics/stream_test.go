package metrics_test

import (
	"bytes"
	"math"
	"testing"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/metrics"
	"fxpar/internal/sim"
	"fxpar/internal/trace"
)

// TestStreamSinkMatchesFromTraceByteForByte is the tentpole acceptance test:
// a run traced through both a full Collector and the online StreamSink (via
// trace.Tee) must yield byte-identical snapshot JSON from the two pipelines,
// even though the sink never retained an event.
func TestStreamSinkMatchesFromTraceByteForByte(t *testing.T) {
	const procs = 6
	col := &trace.Collector{}
	sink := metrics.NewStreamSink(procs)
	m := machine.New(procs, sim.Paragon())
	m.SetTracer(trace.Tee(col, sink))
	ffthist.Run(m, ffthist.Config{N: 32, Sets: 4, Bins: 16}, ffthist.Pipeline(2, 2, 2))

	if d := sink.Dropped(); d != 0 {
		t.Fatalf("StreamSink dropped %d events", d)
	}
	live, err := sink.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	posthoc, err := metrics.FromTrace(col.Events()).Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, posthoc) {
		t.Errorf("streaming snapshot differs from post-hoc pipeline:\n--- streaming\n%s\n--- post-hoc\n%s", live, posthoc)
	}
}

// TestStreamSinkSnapshotRepeatable: snapshotting twice after the run must
// give identical bytes (merging does not mutate the per-processor partials).
func TestStreamSinkSnapshotRepeatable(t *testing.T) {
	sink := metrics.NewStreamSink(2)
	m := machine.New(2, sim.Paragon())
	m.SetTracer(sink)
	ffthist.Run(m, ffthist.Config{N: 16, Sets: 2, Bins: 8}, mapping.DataParallel(2))
	a, err := sink.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sink.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("repeated snapshots of the same sink differ")
	}
}

// TestStreamSinkSteadyStateNoAllocs guards the O(procs + groups) memory
// claim: once a span label has been seen, recording further events — span
// traffic included — must not allocate. An event-retaining sink could not
// pass this (appends eventually grow a slice).
func TestStreamSinkSteadyStateNoAllocs(t *testing.T) {
	sink := metrics.NewStreamSink(1)
	evs := []machine.Event{
		{Proc: 0, Kind: machine.EvSpanBegin, Start: 0, End: 0, Seq: 1, Label: "on:work:group[0]"},
		{Proc: 0, Kind: machine.EvCompute, Start: 0, End: 1, Seq: 2},
		{Proc: 0, Kind: machine.EvSend, Start: 1, End: 2, Seq: 3, Peer: 0, Bytes: 8},
		{Proc: 0, Kind: machine.EvWait, Start: 2, End: 3, Seq: 4, Peer: 0},
		{Proc: 0, Kind: machine.EvRecv, Start: 3, End: 3, Seq: 5, Peer: 0, Bytes: 8},
		{Proc: 0, Kind: machine.EvIO, Start: 3, End: 4, Seq: 6},
		{Proc: 0, Kind: machine.EvSpanEnd, Start: 4, End: 4, Seq: 7, Label: "on:work:group[0]"},
	}
	// Warm the label cache and the span stack's capacity.
	for _, e := range evs {
		sink.Record(e)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, e := range evs {
			sink.Record(e)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state StreamSink.Record allocates %.1f times per batch; want 0", allocs)
	}
}

// TestStreamSinkDropsOutOfRangeProc: events for unknown processors are
// counted, not folded (and must not panic).
func TestStreamSinkDropsOutOfRangeProc(t *testing.T) {
	sink := metrics.NewStreamSink(2)
	sink.Record(machine.Event{Proc: 5, Kind: machine.EvCompute, Start: 0, End: 1})
	sink.Record(machine.Event{Proc: -1, Kind: machine.EvCompute, Start: 0, End: 1})
	if got := sink.Dropped(); got != 2 {
		t.Errorf("Dropped() = %d, want 2", got)
	}
	if snap := sink.Snapshot(); snap.Totals.Events != 0 {
		t.Errorf("dropped events leaked into totals: %+v", snap.Totals)
	}
}

// TestHistogramClampsMalformedDurations is the regression test for the
// negative/NaN clamp: a malformed span whose end marker precedes its begin
// (End < Start) yields a negative duration, which must land in bucket 0
// instead of indexing the bucket array with int(Log2(negative)).
func TestHistogramClampsMalformedDurations(t *testing.T) {
	var h metrics.Histogram
	h.Add(-1.0)
	h.Add(math.NaN())
	h.Add(0)
	h.Add(math.Inf(-1))
	if h.Buckets[0] != 4 {
		t.Errorf("bucket 0 = %d, want 4 (all malformed durations clamp there)", h.Buckets[0])
	}
	if h.Count() != 4 {
		t.Errorf("Count() = %d, want 4", h.Count())
	}

	// End-to-end: a hand-built trace whose span end precedes its begin.
	evs := []machine.Event{
		{Proc: 0, Kind: machine.EvSpanBegin, Start: 10, End: 10, Seq: 1, Label: "bad:group[0]"},
		{Proc: 0, Kind: machine.EvSpanEnd, Start: 5, End: 5, Seq: 2, Label: "bad:group[0]"},
	}
	snap := metrics.FromTrace(evs).Snapshot()
	var bad *metrics.OpMetrics
	for i := range snap.Ops {
		if snap.Ops[i].Op == "bad" {
			bad = &snap.Ops[i]
		}
	}
	if bad == nil {
		t.Fatalf("no metrics cell for the malformed span: %+v", snap.Ops)
	}
	if bad.Spans != 1 || bad.Dur.Buckets[0] != 1 {
		t.Errorf("malformed span: Spans=%d Buckets[0]=%d, want 1 and 1", bad.Spans, bad.Dur.Buckets[0])
	}
}
