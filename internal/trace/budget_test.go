package trace

import (
	"bytes"
	"strings"
	"testing"

	"fxpar/internal/machine"
)

// budgetTestBallast keeps a deliberate allocation reachable so the compiler
// cannot elide it from the Start/Finish accounting window.
var budgetTestBallast []byte

// countSink counts Record calls; the meter wrapping it must agree exactly.
type countSink struct{ n int64 }

func (c *countSink) Record(machine.Event) { c.n++ }

func TestMeteredSinkCountsEveryEvent(t *testing.T) {
	b := NewOverheadBudget()
	inner := &countSink{}
	wrapped := b.Meter("count", inner)
	const events = 10_000
	for i := 0; i < events; i++ {
		wrapped.Record(machine.Event{Proc: i % 64, Kind: machine.EvCompute})
	}
	r := b.Report()
	if len(r.Sinks) != 1 {
		t.Fatalf("report has %d sinks, want 1", len(r.Sinks))
	}
	c := r.Sinks[0]
	if c.Name != "count" || c.Events != events || inner.n != events {
		t.Errorf("sink cost %+v, inner saw %d, want %d events forwarded", c, inner.n, events)
	}
	if c.TimedCalls == 0 || c.EstNS < 0 {
		t.Errorf("meter never timed a call: %+v", c)
	}
}

func TestBudgetStartFinishAndLine(t *testing.T) {
	b := NewOverheadBudget()
	sink := b.Meter("collector", &countSink{})
	s := NewSampler(4, UniformSampleConfig(0.5, 9))
	b.SetSampler(s)
	b.Start()
	for i := 1; i <= 1000; i++ {
		if s.SampleEvent(i%4, int64(i), machine.EvCompute) {
			sink.Record(machine.Event{Proc: i % 4, Kind: machine.EvCompute})
		}
	}
	budgetTestBallast = make([]byte, 1<<16) // visible in the alloc accounting
	b.Finish()
	r := b.Report()
	if r.WallNS <= 0 {
		t.Errorf("WallNS = %d, want > 0", r.WallNS)
	}
	if r.Mallocs == 0 {
		t.Errorf("allocation accounting recorded nothing")
	}
	if r.Sample == nil || !r.Sample.Sampled() {
		t.Fatalf("report missing sampler snapshot: %+v", r.Sample)
	}
	line := r.Line()
	for _, want := range []string{"sinks ", "collector", "sampled compute=1/2", "dropped"} {
		if !strings.Contains(line, want) {
			t.Errorf("Line() = %q, missing %q", line, want)
		}
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"wall ", "telemetry est", "collector", "allocs"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestMeterNilAndNilBudget(t *testing.T) {
	b := NewOverheadBudget()
	if got := b.Meter("none", nil); got != nil {
		t.Errorf("Meter(nil sink) = %v, want nil", got)
	}
	var nilBudget *OverheadBudget
	inner := &countSink{}
	if got := nilBudget.Meter("x", inner); got != machine.Tracer(inner) {
		t.Errorf("nil budget must pass the sink through unchanged")
	}
}

// TestBudgetReportLiveDuringRun: Report is safe and meaningful mid-run (the
// campaign monitor polls it before Finish).
func TestBudgetReportLiveDuringRun(t *testing.T) {
	b := NewOverheadBudget()
	b.Start()
	r := b.Report()
	if r.WallNS <= 0 {
		t.Errorf("live report WallNS = %d, want elapsed > 0", r.WallNS)
	}
	b.Finish()
	frozen := b.Report()
	if frozen.WallNS <= 0 {
		t.Errorf("frozen WallNS = %d", frozen.WallNS)
	}
}
