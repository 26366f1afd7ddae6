package metrics

import (
	"bytes"
	"testing"

	"fxpar/internal/machine"
	"fxpar/internal/trace"
)

// FromTrace, the post-hoc oracle the online sink is held to, builds a
// registry from a run's events (typically Collector.Events(); any order is
// accepted, the input is not modified) by replaying them, sorted into
// per-processor program order, into a StreamSink. The result is a pure
// function of the event values, which are virtual-time deterministic.
func FromTrace(evs []machine.Event) *Registry {
	sorted := append([]machine.Event(nil), evs...)
	trace.SortEvents(sorted)
	procs := 0
	if n := len(sorted); n > 0 {
		procs = max(sorted[n-1].Proc+1, 0)
	}
	s := NewStreamSink(procs)
	for _, e := range sorted {
		s.Record(e)
	}
	return s.Registry()
}

// TestChaosEventsCounted: EvFault/EvRetry events land in the chaos counters
// of their owning operation and of the totals, on both the streaming and
// post-hoc paths — which must stay byte-identical.
func TestChaosEventsCounted(t *testing.T) {
	evs := []machine.Event{
		{Proc: 0, Kind: machine.EvSpanBegin, Seq: 1, Label: "bcast:group[0-1]"},
		{Proc: 0, Kind: machine.EvFault, Seq: 2, Start: 1, End: 1, Peer: 1, Label: machine.FaultDelay},
		{Proc: 0, Kind: machine.EvRetry, Seq: 3, Start: 1, End: 1, Peer: 1},
		{Proc: 0, Kind: machine.EvSpanEnd, Seq: 4, Start: 4, End: 4, Label: "bcast:group[0-1]"},
		{Proc: 1, Kind: machine.EvFault, Seq: 1, Start: 2, End: 2, Peer: -1, Label: machine.FaultDeath},
	}
	reg := FromTrace(evs)
	snap := reg.Snapshot()
	if snap.Totals.Faults != 2 || snap.Totals.Retries != 1 {
		t.Errorf("totals faults/retries = %d/%d, want 2/1", snap.Totals.Faults, snap.Totals.Retries)
	}
	if snap.Totals.Wait != 0 {
		t.Errorf("zero-duration markers counted as wait: %g", snap.Totals.Wait)
	}
	var bcast *OpMetrics
	for i := range snap.Ops {
		if snap.Ops[i].Op == "bcast" {
			bcast = &snap.Ops[i]
		}
	}
	if bcast == nil {
		t.Fatal("no bcast op in snapshot")
	}
	if bcast.Faults != 1 || bcast.Retries != 1 {
		t.Errorf("bcast faults/retries = %d/%d, want 1/1", bcast.Faults, bcast.Retries)
	}

	sink := NewStreamSink(2)
	for _, e := range evs {
		sink.Record(e)
	}
	a, err := sink.Registry().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("streaming and post-hoc snapshots diverge on chaos events:\n%s\nvs\n%s", a, b)
	}
}

// TestHealthySnapshotHasNoChaosFields: the chaos counters are omitted from
// JSON when zero, so healthy-run snapshots stay byte-compatible with
// baselines recorded before fault injection existed.
func TestHealthySnapshotHasNoChaosFields(t *testing.T) {
	evs := []machine.Event{
		{Proc: 0, Kind: machine.EvCompute, Seq: 1, Start: 0, End: 1},
	}
	out, err := FromTrace(evs).Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"faults", "retries"} {
		if bytes.Contains(out, []byte(field)) {
			t.Errorf("healthy snapshot contains %q:\n%s", field, out)
		}
	}
}
