package skeleton_test

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
	"fxpar/internal/trace"
)

// captureFFTHist runs a small FFT-Hist pipeline under a collector and a
// skeleton sink simultaneously and returns both capture paths' views.
func captureFFTHist(t *testing.T, cost sim.CostModel, cfg ffthist.Config, mp mapping.Mapping) (*skeleton.Skeleton, *skeleton.Sink, []machine.Event) {
	t.Helper()
	col := &trace.Collector{}
	sink := skeleton.NewSink(cost, "")
	m := machine.New(mp.Procs(), cost)
	m.SetTracer(trace.Tee(col, sink))
	ffthist.Run(m, cfg, mp)
	evs := col.Events()
	sk, err := skeleton.FromEvents(cost, evs)
	if err != nil {
		t.Fatalf("skeleton.FromEvents: %v", err)
	}
	return sk, sink, evs
}

func smallRun(t *testing.T) (*skeleton.Skeleton, *skeleton.Sink, []machine.Event) {
	t.Helper()
	return captureFFTHist(t, sim.Paragon(),
		ffthist.Config{N: 32, Sets: 6, Bins: 16},
		mapping.Mapping{Modules: 1, Stages: []int{4, 2, 2}})
}

// TestRecostIdentity is the determinism guarantee: re-costing a skeleton at
// its recorded parameters reproduces the recorded event stream bitwise, and
// with it the recorded makespan and critical-path breakdown exactly.
func TestRecostIdentity(t *testing.T) {
	sk, _, evs := smallRun(t)

	res, err := sk.RecostEvents(skeleton.Params{})
	if err != nil {
		t.Fatalf("RecostEvents: %v", err)
	}
	recorded := append([]machine.Event(nil), evs...)
	trace.SortEvents(recorded)
	if len(res.Events) != len(recorded) {
		t.Fatalf("replay produced %d events, recorded %d", len(res.Events), len(recorded))
	}
	for i := range recorded {
		if res.Events[i] != recorded[i] {
			t.Fatalf("event %d diverges:\n got %+v\nwant %+v", i, res.Events[i], recorded[i])
		}
	}

	cpRec := trace.ComputeCriticalPath(recorded)
	cpRe := trace.ComputeCriticalPath(res.Events)
	if res.Makespan != sk.Makespan || res.Makespan != cpRec.Makespan {
		t.Fatalf("makespans disagree: replay %v skeleton %v critpath %v",
			res.Makespan, sk.Makespan, cpRec.Makespan)
	}
	var recBuf, reBuf bytes.Buffer
	cpRec.WriteReport(&recBuf)
	cpRe.WriteReport(&reBuf)
	if recBuf.String() != reBuf.String() {
		t.Fatalf("critical-path reports diverge:\nrecorded:\n%s\nreplayed:\n%s", recBuf.String(), reBuf.String())
	}

	mk, err := sk.Recost(skeleton.Params{})
	if err != nil {
		t.Fatalf("Recost: %v", err)
	}
	if mk != sk.Makespan {
		t.Fatalf("fast-path Recost makespan %v != recorded %v", mk, sk.Makespan)
	}
}

// TestSinkMatchesFromEvents: the streaming capture path and the post-hoc fold
// must produce byte-identical skeletons for the same run.
func TestSinkMatchesFromEvents(t *testing.T) {
	sk, sink, _ := smallRun(t)
	fromSink, err := sink.Skeleton()
	if err != nil {
		t.Fatalf("skeleton.Sink.Skeleton: %v", err)
	}
	a, err := sk.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	b, err := fromSink.Encode()
	if err != nil {
		t.Fatalf("Encode(sink): %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("capture paths diverge: skeleton.FromEvents %d bytes, skeleton.Sink %d bytes", len(a), len(b))
	}
}

func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d / m
}

// TestPerturbedRecostMatchesResim: for a healthy run the DAG is
// parameter-independent, so an analytic re-cost under perturbed alpha, beta,
// flop rate and io rate must match a full re-simulation at those parameters
// to floating-point rounding.
func TestPerturbedRecostMatchesResim(t *testing.T) {
	cfg := ffthist.Config{N: 32, Sets: 6, Bins: 16}
	mp := mapping.Mapping{Modules: 1, Stages: []int{4, 2, 2}}
	sk, _, _ := captureFFTHist(t, sim.Paragon(), cfg, mp)

	perturb := []func(c *sim.CostModel){
		func(c *sim.CostModel) { c.Alpha *= 4 },
		func(c *sim.CostModel) { c.Beta *= 8 },
		func(c *sim.CostModel) { c.FlopRate *= 2.5 },
		func(c *sim.CostModel) { c.IORate *= 0.5 },
		func(c *sim.CostModel) { c.Alpha *= 0.25; c.Beta *= 2; c.FlopRate *= 0.5 },
	}
	for i, f := range perturb {
		cost := sim.Paragon()
		f(&cost)
		got, err := sk.Recost(skeleton.Params{Cost: &cost})
		if err != nil {
			t.Fatalf("perturbation %d: Recost: %v", i, err)
		}
		m := machine.New(mp.Procs(), cost)
		col := &trace.Collector{}
		m.SetTracer(col)
		res := ffthist.Run(m, cfg, mp)
		want := res.Stats.MakespanTime()
		if e := relErr(got, want); e > 1e-9 {
			t.Errorf("perturbation %d: recost makespan %v vs re-sim %v (rel err %g)", i, got, want, e)
		}
	}
}

// TestWhatIfTopEntryConfirmed builds a two-stage pipeline with a dominant
// producer span and checks (1) the what-if ranking puts the dominant span
// first, and (2) its predicted gain matches an actual re-run in which that
// span's work really is k times faster.
func TestWhatIfTopEntryConfirmed(t *testing.T) {
	const k = 4.0
	prog := func(speedup float64) func(*machine.Proc) {
		return func(p *machine.Proc) {
			switch p.ID() {
			case 0:
				for i := 0; i < 8; i++ {
					p.BeginSpan("produce")
					p.Compute(4e6 / speedup)
					p.EndSpan()
					p.Send(1, nil, 4096)
				}
			case 1:
				for i := 0; i < 8; i++ {
					p.Recv(0)
					p.BeginSpan("consume")
					p.Compute(1e6)
					p.EndSpan()
				}
			}
		}
	}
	cost := sim.Paragon()
	col := &trace.Collector{}
	m := machine.New(2, cost)
	m.SetTracer(col)
	m.Run(prog(1))
	sk, err := skeleton.FromEvents(cost, col.Events())
	if err != nil {
		t.Fatalf("skeleton.FromEvents: %v", err)
	}

	rep, err := sk.WhatIf([]float64{2, k})
	if err != nil {
		t.Fatalf("skeleton.WhatIf: %v", err)
	}
	if len(rep.Rows) == 0 || rep.Rows[0].Label != "produce" {
		t.Fatalf("top-ranked span = %+v, want produce first", rep.Rows)
	}
	predicted := rep.Baseline - rep.Rows[0].Gains[len(rep.Rows[0].Gains)-1]

	m2 := machine.New(2, cost)
	stats := m2.Run(prog(k))
	actual := stats.MakespanTime()
	if e := relErr(predicted, actual); e > 1e-12 {
		t.Errorf("what-if predicts makespan %v with produce %gx faster; actual re-run gives %v (rel err %g)",
			predicted, k, actual, e)
	}

	var buf bytes.Buffer
	rep.WriteTable(&buf)
	out := buf.String()
	if !strings.Contains(out, "produce") || !strings.Contains(out, "consume") {
		t.Errorf("what-if table missing span rows:\n%s", out)
	}
}

// TestSensitivityCurves: identity scale must reproduce the baseline exactly;
// slower parameters must never shrink the makespan.
func TestSensitivityCurves(t *testing.T) {
	sk, _, _ := smallRun(t)
	sv, err := sk.Sensitivity([]float64{0.5, 1, 2})
	if err != nil {
		t.Fatalf("skeleton.Sensitivity: %v", err)
	}
	if sv.Alpha[1].Makespan != sk.Makespan || sv.Beta[1].Makespan != sk.Makespan || sv.Flop[1].Makespan != sk.Makespan {
		t.Fatalf("identity scale does not reproduce recorded makespan: %+v (want %v)", sv, sk.Makespan)
	}
	if sv.Alpha[2].Makespan < sk.Makespan || sv.Beta[2].Makespan < sk.Makespan {
		t.Errorf("doubling alpha/beta shrank the makespan: %+v", sv)
	}
	// Flop scale 2 = faster CPU: makespan must not grow.
	if sv.Flop[2].Makespan > sk.Makespan {
		t.Errorf("doubling flop rate grew the makespan: %v -> %v", sk.Makespan, sv.Flop[2].Makespan)
	}
	var buf bytes.Buffer
	sv.WriteCurves(&buf)
	if !strings.Contains(buf.String(), "floprate*s") {
		t.Errorf("curves output malformed:\n%s", buf.String())
	}
}

// TestEncodeDecodeRoundTrip: decode(encode(s)) must reproduce the skeleton
// exactly, and the content key must survive the round trip.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	sk, _, _ := smallRun(t)
	data, err := sk.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := skeleton.Decode(data)
	if err != nil {
		t.Fatalf("skeleton.Decode: %v", err)
	}
	data2, err := got.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("round trip is not byte-identical")
	}
	mk, err := got.Recost(skeleton.Params{})
	if err != nil {
		t.Fatalf("Recost(decoded): %v", err)
	}
	if mk != sk.Makespan {
		t.Fatalf("decoded skeleton re-costs to %v, recorded %v", mk, sk.Makespan)
	}
}

// TestDecodeRejectsTampering: flipping any content byte must fail the key
// check.
func TestDecodeRejectsTampering(t *testing.T) {
	sk, _, _ := smallRun(t)
	data, err := sk.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Tamper with the makespan digits rather than structural JSON.
	tampered := bytes.Replace(data, []byte(`"makespan": `), []byte(`"makespan": 1`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tampering had no effect")
	}
	if _, err := skeleton.Decode(tampered); err == nil || !strings.Contains(err.Error(), "content key mismatch") {
		t.Fatalf("tampered skeleton decoded without key error: %v", err)
	}
}

// TestWriteReadFile exercises the temp-file + rename write path.
func TestWriteReadFile(t *testing.T) {
	sk, _, _ := smallRun(t)
	path := t.TempDir() + "/run.fxskel"
	if err := sk.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := skeleton.Decode(data)
	if err != nil {
		t.Fatalf("skeleton.Decode: %v", err)
	}
	if got.Makespan != sk.Makespan || got.Ops() != sk.Ops() || got.P != sk.P {
		t.Fatalf("file round trip changed the skeleton: %+v vs %+v", got, sk)
	}
}

// TestNetScaleAndSpeedupValidation covers the Params error paths.
func TestNetScaleAndSpeedupValidation(t *testing.T) {
	sk, _, _ := smallRun(t)
	if _, err := sk.Recost(skeleton.Params{SpanSpeedup: map[string]float64{"no-such-span": 2}}); err == nil {
		t.Error("speedup for unknown span did not error")
	}
	if len(sk.Labels) > 0 {
		if _, err := sk.Recost(skeleton.Params{SpanSpeedup: map[string]float64{sk.Labels[0]: -1}}); err == nil {
			t.Error("negative speedup did not error")
		}
	}
	fast, err := sk.Recost(skeleton.Params{NetScale: 0.5})
	if err != nil {
		t.Fatalf("NetScale recost: %v", err)
	}
	slow, err := sk.Recost(skeleton.Params{NetScale: 2})
	if err != nil {
		t.Fatalf("NetScale recost: %v", err)
	}
	if !(fast <= sk.Makespan && slow >= sk.Makespan) {
		t.Errorf("net scaling not monotone: fast %v, recorded %v, slow %v", fast, sk.Makespan, slow)
	}
}

// TestFoldRejectsMalformedTraces covers the fold error paths.
func TestFoldRejectsMalformedTraces(t *testing.T) {
	cost := sim.Paragon()
	if _, err := skeleton.FromEvents(cost, nil); err == nil {
		t.Error("empty trace did not error")
	}
	unclosed := []machine.Event{
		{Proc: 0, Seq: 1, Kind: machine.EvSpanBegin, Label: "open", Peer: -1},
	}
	if _, err := skeleton.FromEvents(cost, unclosed); err == nil {
		t.Error("unclosed span did not error")
	}
	orphanWait := []machine.Event{
		{Proc: 0, Seq: 1, Kind: machine.EvWait, Peer: 1, End: 1},
	}
	if _, err := skeleton.FromEvents(cost, orphanWait); err == nil {
		t.Error("wait without recv did not error")
	}
}

// TestReplayStuckDetection: a skeleton with a receive whose message is never
// sent must fail loudly, not hang.
func TestReplayStuckDetection(t *testing.T) {
	sk := &skeleton.Skeleton{P: 2, Cost: sim.Paragon(), Procs: [][]skeleton.Op{
		{},
		{{Kind: machine.EvRecv, Peer: 0, Bytes: 8, PairSeq: 0, Label: -1, Span: -1}},
	}}
	if _, err := sk.Recost(skeleton.Params{}); err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("truncated skeleton did not report stuck replay: %v", err)
	}
}
