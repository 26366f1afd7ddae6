package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fxpar/internal/comm"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// tracedRun runs body under a Collector, teed with any extra sinks.
func tracedRun(n int, body func(p *machine.Proc), sinks ...machine.Tracer) *Collector {
	c := &Collector{}
	m := machine.New(n, sim.CostModel{
		FlopRate: 1e6, Alpha: 1e-4, Beta: 1e-7, SendOverhead: 1e-5, IORate: 1e6,
	})
	m.SetTracer(Tee(append([]machine.Tracer{c}, sinks...)...))
	m.Run(body)
	return c
}

func TestCollectorRecordsComputeAndWait(t *testing.T) {
	c := tracedRun(2, func(p *machine.Proc) {
		if p.ID() == 0 {
			p.Compute(5000)
			p.Send(1, 1, 8)
		} else {
			p.Recv(0)
		}
	})
	evs := c.Events()
	var kinds []machine.EventKind
	for _, e := range evs {
		kinds = append(kinds, e.Kind)
		if e.End < e.Start {
			t.Errorf("negative interval %+v", e)
		}
	}
	want := map[machine.EventKind]bool{machine.EvCompute: false, machine.EvSend: false, machine.EvWait: false}
	for _, k := range kinds {
		want[k] = true
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("no %v event recorded", k)
		}
	}
}

func TestEventsSortedDeterministically(t *testing.T) {
	run := func() []machine.Event {
		c := tracedRun(4, func(p *machine.Proc) {
			for i := 0; i < 5; i++ {
				p.Compute(float64(1000 * (p.ID() + 1)))
				p.Send((p.ID()+1)%4, 0, 8)
				p.Recv((p.ID() + 3) % 4)
			}
		})
		return c.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSpanAndUtilSink(t *testing.T) {
	util := NewUtilSink(2)
	c := tracedRun(2, func(p *machine.Proc) {
		if p.ID() == 0 {
			p.Compute(2000) // 2 ms
			p.IO(1000)      // 1 ms
		}
	}, util)
	start, end := c.Span()
	if start != 0 || end < 0.0029 {
		t.Errorf("span = [%g, %g]", start, end)
	}
	busy := util.Snapshot().PerProc[0]
	if got := busy.Compute; got < 0.0019 || got > 0.0021 {
		t.Errorf("compute busy = %g", got)
	}
	if got := busy.IO; got < 0.0009 || got > 0.0011 {
		t.Errorf("io busy = %g", got)
	}
}

func TestGanttShowsPipelineOverlap(t *testing.T) {
	// Two stages exchanging a stream: both rows must contain compute glyphs,
	// and the downstream row must contain wait glyphs at the start.
	c := tracedRun(2, func(p *machine.Proc) {
		g := group.World(2)
		for i := 0; i < 5; i++ {
			if p.ID() == 0 {
				p.Compute(10000)
				comm.Send(p, g, 1, []float64{1})
			} else {
				comm.Recv[float64](p, g, 0)
				p.Compute(10000)
			}
		}
	})
	var buf bytes.Buffer
	Gantt(&buf, c, 2, 60)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "#") || !strings.Contains(lines[2], "#") {
		t.Errorf("missing compute glyphs:\n%s", out)
	}
	if !strings.Contains(lines[2], ".") {
		t.Errorf("downstream stage shows no waiting:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	var buf bytes.Buffer
	Gantt(&buf, &Collector{}, 2, 40)
	if !strings.Contains(buf.String(), "no events") {
		t.Errorf("got %q", buf.String())
	}
}

func TestUtilization(t *testing.T) {
	util := NewUtilSink(2)
	tracedRun(2, func(p *machine.Proc) {
		if p.ID() == 0 {
			p.Compute(10000)
			p.Send(1, 0, 8)
		} else {
			p.Recv(0)
		}
	}, util)
	var buf bytes.Buffer
	util.Snapshot().WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "p0000") || !strings.Contains(out, "p0001") {
		t.Errorf("missing rows:\n%s", out)
	}
	if !strings.Contains(out, "%") {
		t.Errorf("no percentages:\n%s", out)
	}
}

func TestNoTracerNoOverhead(t *testing.T) {
	// Untraced runs record nothing and behave identically.
	m := machine.New(1, sim.CostModel{FlopRate: 1e6, IORate: 1e6})
	stats := m.Run(func(p *machine.Proc) { p.Compute(1000) })
	if stats.Procs[0].Finish != 0.001 {
		t.Errorf("finish = %g", stats.Procs[0].Finish)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	c := tracedRun(2, func(p *machine.Proc) {
		if p.ID() == 0 {
			p.Compute(1000)
			p.Send(1, 0, 8)
		} else {
			p.Recv(0)
		}
	})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, c); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events exported")
	}
	kinds := map[string]bool{}
	for _, e := range events {
		if e["ph"] != "X" {
			t.Errorf("event phase %v", e["ph"])
		}
		if e["dur"].(float64) < 0 {
			t.Errorf("negative duration")
		}
		kinds[e["name"].(string)] = true
	}
	for _, want := range []string{"compute", "send", "wait"} {
		if !kinds[want] {
			t.Errorf("missing %q events", want)
		}
	}
}
