package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// intCost is a cost model whose unit costs make every event boundary an
// exact small integer in virtual seconds: 1 flop = 1 s, wire = 1 s,
// send overhead = 1 s, 1 I/O byte = 1 s.
func intCost() sim.CostModel {
	return sim.CostModel{FlopRate: 1, Alpha: 1, SendOverhead: 1, BarrierAlpha: 1, IORate: 1}
}

// producerConsumer runs the canonical bottleneck scenario used by several
// tests below:
//
//	p0: span "on:prod:group[0]" { compute 10s; send -> p1 }   (send [10,11])
//	p1: span "on:cons:group[1]" { recv (waits [0,12]); compute 2s }
//
// Makespan 14 s; the critical path is p0's compute+send, one wire hop
// (1 s), then p1's compute.
func producerConsumer(t *testing.T) *Collector {
	t.Helper()
	c := &Collector{}
	m := machine.New(2, intCost())
	m.SetTracer(c)
	m.Run(func(p *machine.Proc) {
		if p.ID() == 0 {
			p.BeginSpan("on:prod:group[0]")
			p.Compute(10)
			p.Send(1, 99, 4)
			p.EndSpan()
		} else {
			p.BeginSpan("on:cons:group[1]")
			p.Recv(0)
			p.Compute(2)
			p.EndSpan()
		}
	})
	return c
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTimelineReconstructsSpans(t *testing.T) {
	c := producerConsumer(t)
	tl := NewTimeline(c.Events())
	if len(tl.Spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(tl.Spans), tl.Spans)
	}
	for _, s := range tl.Spans {
		switch s.Label {
		case "on:prod:group[0]":
			if s.Proc != 0 || !approx(s.Start, 0) || !approx(s.End, 11) || s.Parent != -1 || s.Depth != 0 {
				t.Errorf("prod span = %+v", s)
			}
		case "on:cons:group[1]":
			if s.Proc != 1 || !approx(s.Start, 0) || !approx(s.End, 14) || s.Parent != -1 {
				t.Errorf("cons span = %+v", s)
			}
		default:
			t.Errorf("unexpected span %+v", s)
		}
	}
	// Every leaf event is owned by its processor's span.
	for i, e := range tl.Events {
		if e.Kind == machine.EvSpanBegin || e.Kind == machine.EvSpanEnd {
			continue
		}
		want := "on:prod:group[0]"
		if e.Proc == 1 {
			want = "on:cons:group[1]"
		}
		if got := tl.OwnerLabel(i); got != want {
			t.Errorf("event %d (%v on p%d) owner = %q, want %q", i, e.Kind, e.Proc, got, want)
		}
	}
}

func TestTimelineNestedOwnership(t *testing.T) {
	c := &Collector{}
	m := machine.New(1, intCost())
	m.SetTracer(c)
	m.Run(func(p *machine.Proc) {
		p.BeginSpan("outer")
		p.Compute(1)
		p.BeginSpan("inner")
		p.Compute(1)
		p.EndSpan()
		p.Compute(1)
		p.EndSpan()
	})
	tl := NewTimeline(c.Events())
	var got []string
	for i, e := range tl.Events {
		if e.Kind == machine.EvCompute {
			got = append(got, tl.OwnerLabel(i))
		}
	}
	want := []string{"outer", "inner", "outer"}
	if len(got) != len(want) {
		t.Fatalf("owners = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("compute %d owner = %q, want %q", i, got[i], want[i])
		}
	}
	if tl.Spans[1].Parent != 0 || tl.Spans[1].Depth != 1 {
		t.Errorf("inner span parent/depth = %d/%d, want 0/1", tl.Spans[1].Parent, tl.Spans[1].Depth)
	}
}

func TestSplitLabel(t *testing.T) {
	cases := []struct{ in, op, group string }{
		{"barrier:group[2 3]", "barrier", "group[2 3]"},
		{"on:G1:group[0 1]", "on:G1", "group[0 1]"},
		{"region:G1+G2:group[0 1 2 3]", "region:G1+G2", "group[0 1 2 3]"},
		{"plain", "plain", ""},
	}
	for _, tc := range cases {
		op, g := SplitLabel(tc.in)
		if op != tc.op || g != tc.group {
			t.Errorf("SplitLabel(%q) = (%q, %q), want (%q, %q)", tc.in, op, g, tc.op, tc.group)
		}
	}
}

func TestCriticalPathProducerBottleneck(t *testing.T) {
	cp := ComputeCriticalPath(producerConsumer(t).Events())
	if cp == nil {
		t.Fatal("nil critical path")
	}
	if !approx(cp.Makespan, 14) || !approx(cp.Start, 0) {
		t.Errorf("path window = [%g, %g], want [0, 14]", cp.Start, cp.Makespan)
	}
	if cp.Hops != 1 {
		t.Errorf("hops = %d, want 1", cp.Hops)
	}
	if len(cp.Procs) != 2 || cp.Procs[0] != 0 || cp.Procs[1] != 1 {
		t.Errorf("procs = %v, want [0 1]", cp.Procs)
	}
	kinds := map[string]float64{}
	for _, kt := range cp.ByKind {
		kinds[kt.Kind] = kt.Time
	}
	// compute 10 (p0) + 2 (p1), send overhead 1, wire 1; p1's 12 s wait is
	// NOT on the path — it is explained by the sender's timeline.
	if !approx(kinds["compute"], 12) || !approx(kinds["send"], 1) || !approx(kinds["network"], 1) {
		t.Errorf("by kind = %v, want compute 12, send 1, network 1", kinds)
	}
	if _, onPath := kinds["wait"]; onPath {
		t.Errorf("wait appears on path: %v", kinds)
	}
	spans := map[string]float64{}
	for _, st := range cp.BySpan {
		spans[st.Label] = st.Time
	}
	if !approx(spans["on:prod:group[0]"], 11) || !approx(spans["on:cons:group[1]"], 2) || !approx(spans["(network)"], 1) {
		t.Errorf("by span = %v", spans)
	}
	if cp.BySpan[0].Label != "on:prod:group[0]" {
		t.Errorf("dominant span = %q, want producer", cp.BySpan[0].Label)
	}
	if cp.Unattributed != 0 {
		t.Errorf("unattributed = %g, want 0", cp.Unattributed)
	}
	var sum float64
	for _, kt := range cp.ByKind {
		sum += kt.Time
	}
	if !approx(sum, cp.PathTime()) {
		t.Errorf("kind times sum to %g, path time %g", sum, cp.PathTime())
	}
}

func TestCriticalPathReportDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	ComputeCriticalPath(producerConsumer(t).Events()).WriteReport(&a)
	ComputeCriticalPath(producerConsumer(t).Events()).WriteReport(&b)
	if a.String() != b.String() {
		t.Errorf("reports differ:\n%s\n---\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "1 hops") || !strings.Contains(a.String(), "on:prod:group[0]") {
		t.Errorf("report missing expected content:\n%s", a.String())
	}
}

// TestCriticalPathSampledEdgesByIdentity: a sampled trace keeps p0's first
// send (PairSeq 0) but drops its second, and keeps p1's second receive
// (PairSeq 1) with its wait but drops the first. The kept send and the kept
// receive are different messages, so the wait has no recorded sender: the
// path must stay on p1 instead of hopping to the unrelated send.
func TestCriticalPathSampledEdgesByIdentity(t *testing.T) {
	// Unsampled, with intCost: p0 sends [0,1] (arrives 2), computes [1,3],
	// sends [3,4] (arrives 5); p1 waits [0,2] and receives, then waits [2,5]
	// and receives.
	evs := []machine.Event{
		{Proc: 0, Kind: machine.EvSend, Seq: 1, Start: 0, End: 1, Peer: 1, Bytes: 8, Dur: 1, Wire: 1, PairSeq: 0},
		{Proc: 1, Kind: machine.EvWait, Seq: 3, Start: 2, End: 5, Peer: 0, Bytes: 8},
		{Proc: 1, Kind: machine.EvRecv, Seq: 4, Start: 5, End: 5, Peer: 0, Bytes: 8, PairSeq: 1},
	}
	cp := ComputeCriticalPath(evs)
	if cp.Hops != 0 {
		t.Errorf("hops = %d, want 0 (the kept send is a different message)", cp.Hops)
	}
	for _, kt := range cp.ByKind {
		if kt.Kind == "network" {
			t.Errorf("network time %g on a path with no matched edge", kt.Time)
		}
	}
	if len(cp.Procs) != 1 || cp.Procs[0] != 1 || !approx(cp.PathTime(), 3) {
		t.Errorf("path procs %v over %g s, want p1 alone over its 3 s wait", cp.Procs, cp.PathTime())
	}
}

func TestComputeCriticalPathEmpty(t *testing.T) {
	if cp := ComputeCriticalPath(nil); cp != nil {
		t.Errorf("empty trace path = %+v, want nil", cp)
	}
}

func TestSpanGanttAndSummary(t *testing.T) {
	c := producerConsumer(t)
	var g bytes.Buffer
	SpanGantt(&g, c, 2, 28)
	out := g.String()
	for _, want := range []string{"p00", "p01", "a = on:cons:group[1]", "b = on:prod:group[0]"} {
		if !strings.Contains(out, want) {
			t.Errorf("span gantt missing %q:\n%s", want, out)
		}
	}
	// p1's span covers the whole makespan; p0's only the first 11/14.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], "b") || strings.Contains(lines[1], "a") {
		t.Errorf("p0 row wrong: %q", lines[1])
	}
	if !strings.HasSuffix(strings.TrimSuffix(lines[2], "|"), "a") {
		t.Errorf("p1 row should end with its span letter: %q", lines[2])
	}

	var s bytes.Buffer
	SpanSummary(&s, c)
	sum := s.String()
	if !strings.Contains(sum, "on:cons:group[1]") || !strings.Contains(sum, "14.000000") {
		t.Errorf("span summary missing consumer span:\n%s", sum)
	}
	// Longest span sorts first.
	if strings.Index(sum, "on:cons") > strings.Index(sum, "on:prod") {
		t.Errorf("summary not sorted by total time:\n%s", sum)
	}
}

// chromeGolden is the exact export of the producerConsumer scenario. The
// integer cost model makes every timestamp exact, so this can be compared
// byte for byte.
const chromeGolden = `[{"name":"on:prod:group[0]","ph":"B","ts":0,"dur":0,"pid":0,"tid":0},` +
	`{"name":"compute","ph":"X","ts":0,"dur":10000000,"pid":0,"tid":0},` +
	`{"name":"send","ph":"X","ts":10000000,"dur":1000000,"pid":0,"tid":0,"args":{"bytes":4,"peer":1}},` +
	`{"name":"on:prod:group[0]","ph":"E","ts":11000000,"dur":0,"pid":0,"tid":0},` +
	`{"name":"on:cons:group[1]","ph":"B","ts":0,"dur":0,"pid":0,"tid":1},` +
	`{"name":"wait","ph":"X","ts":0,"dur":12000000,"pid":0,"tid":1,"args":{"bytes":4,"peer":0}},` +
	`{"name":"recv","ph":"X","ts":12000000,"dur":0,"pid":0,"tid":1,"args":{"bytes":4,"peer":0}},` +
	`{"name":"compute","ph":"X","ts":12000000,"dur":2000000,"pid":0,"tid":1},` +
	`{"name":"on:cons:group[1]","ph":"E","ts":14000000,"dur":0,"pid":0,"tid":1}]` + "\n"

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, producerConsumer(t)); err != nil {
		t.Fatal(err)
	}
	if buf.String() != chromeGolden {
		t.Errorf("chrome trace drifted from golden:\n got: %s\nwant: %s", buf.String(), chromeGolden)
	}
}

// TestChromeTraceSpansAndArgs locks the enriched Chrome export: span markers
// become B/E duration events and communication leaves carry peer/bytes args.
func TestChromeTraceSpansAndArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, producerConsumer(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"name":"on:prod:group[0]","ph":"B"`,
		`"name":"on:prod:group[0]","ph":"E"`,
		`"name":"on:cons:group[1]","ph":"B"`,
		`"args":{"bytes":4,"peer":1}`, // send on p0
		`"args":{"bytes":4,"peer":0}`, // wait/recv on p1
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s\n%s", want, out)
		}
	}
}
