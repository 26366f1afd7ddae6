package serve_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"fxpar/internal/experiments"
	"fxpar/internal/serve"
)

// TestOptimizeIsTable1Cell: POST /optimize answers exactly the campaign
// experiments.Table1 runs per row — for the three quick rows the wire can
// express, the chosen mapping, the goal and both simulated runs are equal
// bit for bit.
func TestOptimizeIsTable1Cell(t *testing.T) {
	cfg := experiments.QuickTable1()
	rows := experiments.Table1(cfg)
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	for _, tc := range []struct {
		app string
		row int
	}{{"ffthist", 0}, {"radar", 2}, {"stereo", 3}} {
		row := rows[tc.row]
		code, body := post(t, ts.URL, "/optimize", map[string]any{
			"app": tc.app, "p": cfg.Procs, "sets": cfg.Sets, "quick": true, "goalRatio": row.GoalRatio,
		})
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.app, code, body)
		}
		var res serve.OptimizeResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if res.Best != row.Best || res.Goal != row.Goal ||
			res.DPThroughput != row.DPThroughput || res.DPLatency != row.DPLatency ||
			res.TaskThroughput != row.TaskThroughput || res.TaskLatency != row.TaskLatency {
			t.Errorf("%s: /optimize = %+v\nTable 1 row = %+v", tc.app, res, row)
		}
	}
}
