package experiments

import (
	"bytes"
	"strings"
	"testing"

	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

func TestTable1QuickShapes(t *testing.T) {
	rows := Table1(QuickTable1())
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if strings.Contains(r.Best, "infeasible") {
			t.Errorf("%s %s: %s", r.Name, r.Size, r.Best)
			continue
		}
		if r.DPThroughput <= 0 || r.TaskThroughput <= 0 {
			t.Errorf("%s %s: zero throughput (dp=%g task=%g)", r.Name, r.Size, r.DPThroughput, r.TaskThroughput)
			continue
		}
		// The paper's core claim: the task mapping beats the data-parallel
		// mapping on throughput in every row.
		if r.TaskThroughput <= r.DPThroughput {
			t.Errorf("%s %s: task throughput %.3f <= DP %.3f", r.Name, r.Size, r.TaskThroughput, r.DPThroughput)
		}
		// Latency may move either way (the paper's radar row holds latency
		// constant; FFT-Hist pays latency for throughput), but it must stay
		// within the same order of magnitude.
		if r.TaskLatency > 10*r.DPLatency {
			t.Errorf("%s %s: task latency %.4f blew up vs DP %.4f", r.Name, r.Size, r.TaskLatency, r.DPLatency)
		}
	}
}

// TestTable1UnderWorkstationModel reruns the experiment under a modern
// cost model: the paper's qualitative conclusion (task mappings beat data
// parallelism on throughput) must survive a three-orders-of-magnitude
// change in machine constants, even though the chosen mappings differ.
func TestTable1UnderWorkstationModel(t *testing.T) {
	cfg := QuickTable1()
	cfg.Cost = sim.Workstation()
	rows := Table1(cfg)
	for _, r := range rows {
		if strings.Contains(r.Best, "infeasible") {
			t.Errorf("%s %s: %s", r.Name, r.Size, r.Best)
			continue
		}
		if r.TaskThroughput <= r.DPThroughput {
			t.Errorf("%s %s: task %.1f <= DP %.1f under workstation model",
				r.Name, r.Size, r.TaskThroughput, r.DPThroughput)
		}
	}
}

func TestTable1Print(t *testing.T) {
	rows := Table1(QuickTable1())
	var buf bytes.Buffer
	PrintTable1(&buf, rows, 16)
	out := buf.String()
	for _, want := range []string{"FFT-Hist", "Radar", "Stereo", "Best Task-Data Parallel"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig5QuickShapes(t *testing.T) {
	cfg := QuickFig5()
	rows, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// No constraint: latency-optimal is the pure data-parallel mapping
	// (Figure 5, left).
	if len(rows[0].Choice.Stages) != 1 || rows[0].Choice.Modules != 1 {
		t.Errorf("unconstrained choice = %v, want data-parallel", rows[0].Choice)
	}
	// Tighter constraints cannot decrease measured throughput or decrease
	// latency.
	for i := 1; i < len(rows); i++ {
		if rows[i].Choice.Stages == nil {
			t.Errorf("row %d infeasible", i)
			continue
		}
		if rows[i].Latency+1e-12 < rows[i-1].Latency {
			t.Errorf("row %d latency %.4f < row %d latency %.4f (constraint tightened)",
				i, rows[i].Latency, i-1, rows[i-1].Latency)
		}
	}
	// The tightest constraint must change the mapping away from pure DP.
	last := rows[len(rows)-1].Choice
	if len(last.Stages) == 1 && last.Modules == 1 {
		t.Errorf("tight constraint still chose pure data-parallel: %v", last)
	}
	var buf bytes.Buffer
	PrintFig5(&buf, rows, cfg)
	if !strings.Contains(buf.String(), "processor allocation") {
		t.Error("diagram missing")
	}
}

// TestCampaignParallelismIsInvisible is the acceptance check for the
// host-parallel campaign driver: the rendered Table 1 and Figure 5 must be
// byte-identical whether the campaign runs on one host thread or several,
// with cold cost-table caches both times.
func TestCampaignParallelismIsInvisible(t *testing.T) {
	render := func(workers int) string {
		mapping.ResetTableMemo() // cold in-process cache for both runs
		t1 := QuickTable1()
		t1.Workers = workers
		f5 := QuickFig5()
		f5.Workers = workers
		var buf bytes.Buffer
		PrintTable1(&buf, Table1(t1), t1.Procs)
		rows, err := Fig5(f5)
		if err != nil {
			t.Fatal(err)
		}
		PrintFig5(&buf, rows, f5)
		return buf.String()
	}
	serial, parallel := render(1), render(4)
	if serial != parallel {
		t.Errorf("-j1 and -j4 output differ:\n--- j1 ---\n%s\n--- j4 ---\n%s", serial, parallel)
	}
}

// TestTable1WarmDiskCache: with a populated cache directory, a fresh
// process (simulated by clearing the memo) sources every row's cost tables
// from disk and produces the same rows.
func TestTable1WarmDiskCache(t *testing.T) {
	cfg := QuickTable1()
	cfg.CacheDir = t.TempDir()
	mapping.ResetTableMemo()
	cold := Table1(cfg)
	mapping.ResetTableMemo()
	warm := Table1(cfg)
	for i, r := range warm {
		if r.ModelSource != "disk" {
			t.Errorf("row %d (%s %s): tables from %q, want disk", i, r.Name, r.Size, r.ModelSource)
		}
		c := cold[i]
		if r.Best != c.Best || r.TaskThroughput != c.TaskThroughput || r.TaskLatency != c.TaskLatency {
			t.Errorf("row %d differs warm vs cold: %+v vs %+v", i, r, c)
		}
	}
}

func TestFig6QuickShapes(t *testing.T) {
	points := Fig6(QuickFig6())
	if len(points) != 5 {
		t.Fatalf("%d points", len(points))
	}
	if points[0].Procs != 1 || points[0].DPSpeedup < 0.99 || points[0].DPSpeedup > 1.01 {
		t.Errorf("baseline point wrong: %+v", points[0])
	}
	last := points[len(points)-1]
	if last.TaskSpeedup <= last.DPSpeedup {
		t.Errorf("at %d procs task speedup %.2f <= DP %.2f (Figure 6 shape violated)",
			last.Procs, last.TaskSpeedup, last.DPSpeedup)
	}
	// DP efficiency must decay with processors (Amdahl on serial I/O).
	first := points[1] // 2 procs
	effFirst := first.DPSpeedup / float64(first.Procs)
	effLast := last.DPSpeedup / float64(last.Procs)
	if effLast >= effFirst {
		t.Errorf("DP efficiency did not decay: %.3f -> %.3f", effFirst, effLast)
	}
	var buf bytes.Buffer
	PrintFig6(&buf, points)
	if !strings.Contains(buf.String(), "task improves") {
		t.Error("print output malformed")
	}
}
