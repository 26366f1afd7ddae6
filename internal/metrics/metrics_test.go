package metrics_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/machine"
	"fxpar/internal/metrics"
	"fxpar/internal/sim"
	"fxpar/internal/trace"
)

// intCost makes every event boundary an exact integer in virtual seconds.
func intCost() sim.CostModel {
	return sim.CostModel{FlopRate: 1, Alpha: 1, SendOverhead: 1, BarrierAlpha: 1, IORate: 1}
}

func TestFromTraceAttributesToInnermostSpan(t *testing.T) {
	c := &trace.Collector{}
	m := machine.New(2, intCost())
	m.SetTracer(c)
	m.Run(func(p *machine.Proc) {
		if p.ID() == 0 {
			p.BeginSpan("on:prod:group[0]")
			p.Compute(10)
			p.BeginSpan("bcast:group[0 1]")
			p.Send(1, 99, 4)
			p.EndSpan()
			p.EndSpan()
		} else {
			p.BeginSpan("on:cons:group[1]")
			p.Recv(0)
			p.Compute(2)
			p.EndSpan()
			p.IO(3) // outside any span -> (root)/(program)
		}
	})
	snap := metrics.FromTrace(c.Events()).Snapshot()

	cell := func(group, op string) *metrics.OpMetrics {
		for i := range snap.Ops {
			if snap.Ops[i].Group == group && snap.Ops[i].Op == op {
				return &snap.Ops[i]
			}
		}
		t.Fatalf("no cell (%s, %s) in %+v", group, op, snap.Ops)
		return nil
	}

	prod := cell("group[0]", "on:prod")
	if prod.Compute != 10 || prod.MsgsSent != 0 || prod.Spans != 1 {
		t.Errorf("prod cell = %+v; want compute 10, no sends (bcast span owns them)", prod)
	}
	bc := cell("group[0 1]", "bcast")
	if bc.MsgsSent != 1 || bc.BytesSent != 4 || bc.Send != 1 {
		t.Errorf("bcast cell = %+v; want the send attributed here", bc)
	}
	cons := cell("group[1]", "on:cons")
	if cons.Compute != 2 || cons.Wait != 12 || cons.MsgsRecvd != 1 || cons.BytesRecvd != 4 {
		t.Errorf("cons cell = %+v; want compute 2, wait 12, 1 msg / 4 bytes received", cons)
	}
	root := cell("(root)", "(program)")
	if root.IO != 3 {
		t.Errorf("root cell = %+v; want the un-spanned IO accounted here", root)
	}

	if snap.Totals.Msgs != 1 || snap.Totals.Bytes != 4 || snap.Totals.Compute != 12 ||
		snap.Totals.Procs != 2 || snap.Totals.Makespan != 17 {
		t.Errorf("totals = %+v", snap.Totals)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h metrics.Histogram
	h.Add(0)       // sub-microsecond -> bucket 0
	h.Add(3e-6)    // 3 us -> [2,4) = bucket 1
	h.Add(1000e-6) // 1000 us -> [512,1024)us = bucket 9
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Buckets[0] != 1 || h.Buckets[1] != 1 || h.Buckets[9] != 1 {
		t.Errorf("buckets = %v", h.Buckets)
	}
}

// tracedFFTHist runs the paper's FFT-Hist pipeline once under tracing and
// returns the metrics JSON and the critical-path report.
func tracedFFTHist(t *testing.T) ([]byte, string) {
	t.Helper()
	c := &trace.Collector{}
	m := machine.New(6, sim.Paragon())
	m.SetTracer(c)
	ffthist.Run(m, ffthist.Config{N: 32, Sets: 4, Bins: 16}, ffthist.Pipeline(2, 2, 2))
	evs := c.Events()
	js, err := metrics.FromTrace(evs).Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	trace.ComputeCriticalPath(evs).WriteReport(&buf)
	return js, buf.String()
}

// TestTracedRunDeterminism is the acceptance test of the observability layer:
// two identical traced runs must produce byte-identical metrics snapshots and
// critical-path reports, no matter how the host scheduler interleaved the
// processor goroutines. (CI runs this under -race as well.)
func TestTracedRunDeterminism(t *testing.T) {
	js1, cp1 := tracedFFTHist(t)
	js2, cp2 := tracedFFTHist(t)
	if !bytes.Equal(js1, js2) {
		t.Errorf("metrics JSON differs between identical runs:\n%s\n---\n%s", js1, js2)
	}
	if cp1 != cp2 {
		t.Errorf("critical-path report differs between identical runs:\n%s\n---\n%s", cp1, cp2)
	}
	if !json.Valid(js1) {
		t.Error("metrics snapshot is not valid JSON")
	}
	// The pipeline's stage subgroups must be visible as metric keys.
	for _, want := range []string{`"group[0 1]"`, `"group[2 3]"`, `"group[4 5]"`, `"op": "reduce"`} {
		if !strings.Contains(string(js1), want) {
			t.Errorf("metrics JSON missing %s", want)
		}
	}
	if !strings.Contains(cp1, "by span") || !strings.Contains(cp1, "group[") {
		t.Errorf("critical-path report lacks span attribution:\n%s", cp1)
	}
}

func TestSnapshotTextAndHistogramsRender(t *testing.T) {
	js, _ := tracedFFTHist(t)
	var snap metrics.Snapshot
	if err := json.Unmarshal(js, &snap); err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	snap.WriteText(&txt)
	if !strings.Contains(txt.String(), "group") || !strings.Contains(txt.String(), "reduce") {
		t.Errorf("text snapshot:\n%s", txt.String())
	}
	populated := false
	for _, m := range snap.Ops {
		populated = populated || m.Dur.Count() > 0
	}
	if !populated {
		t.Error("no operation's duration histogram survived the JSON round trip")
	}
}
