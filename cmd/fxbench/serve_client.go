package main

// The -serve client mode: instead of simulating locally, fxbench talks to
// a running fxserve daemon — the Table 1 campaigns (and, with -chaossweep,
// the chaos campaign) go over HTTP as /optimize and /chaossweep requests.
// The four optimize requests are posted concurrently, which exercises the
// server's request dedupe: the two FFT-Hist goals share one cost-table
// campaign, and re-running the client against a warm server answers every
// request from cache without simulating at all (watch the dedup counters
// the client prints from /stats).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"fxpar/internal/fault"
	"fxpar/internal/serve"
	"fxpar/internal/sweep"
)

// postJSON posts body and decodes the JSON response into out. A non-2xx
// status is an error carrying the server's error body.
func postJSON(base, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// serveGoal is one Table 1 program expressed as an /optimize request: the
// paper's throughput goal as a ratio over measured data-parallel
// throughput (see the experiments package comment).
type serveGoal struct {
	label     string
	app       string
	goalRatio float64
}

// serveMain implements -serve: Table 1 over HTTP against baseURL, or the
// chaos campaign when chaosN > 0. Returns the process exit code.
func serveMain(baseURL string, quick bool, chaosN int, plan *fault.Plan, stdout, stderr io.Writer) int {
	if chaosN > 0 {
		return serveChaos(baseURL, quick, chaosN, plan, stdout, stderr)
	}
	procs, sets := 64, 8
	if quick {
		procs, sets = 16, 6
	}
	goals := []serveGoal{
		{"FFT-Hist @8/s", "ffthist", 8.0 / 3.90},
		{"FFT-Hist @2/s", "ffthist", 2.0 / 1.99},
		{"Radar", "radar", 50.0 / 23.4},
		{"Stereo", "stereo", 10.0 / 3.64},
	}
	results := make([]serve.OptimizeResult, len(goals))
	errs := make([]error, len(goals))
	var wg sync.WaitGroup
	for i, g := range goals {
		wg.Add(1)
		go func(i int, g serveGoal) {
			defer wg.Done()
			req := map[string]any{
				"app": g.app, "p": procs, "sets": sets, "quick": quick,
				"goalRatio": g.goalRatio, "client": "fxbench",
			}
			errs[i] = postJSON(baseURL, "/optimize", req, &results[i])
		}(i, g)
	}
	wg.Wait()

	fmt.Fprintf(stdout, "Table 1 over HTTP (%s, %d simulated nodes)\n\n", baseURL, procs)
	fmt.Fprintf(stdout, "%-14s | %10s %10s | %9s | %10s %10s | %-24s | %s\n",
		"Program", "DP thr(/s)", "DP lat(s)", "goal(/s)", "thr(/s)", "lat(s)", "best mapping", "tables")
	code := 0
	for i, g := range goals {
		if errs[i] != nil {
			fmt.Fprintf(stderr, "fxbench: %s: %v\n", g.label, errs[i])
			code = 1
			continue
		}
		r := results[i]
		fmt.Fprintf(stdout, "%-14s | %10.3f %10.4f | %9.3f | %10.3f %10.4f | %-24s | %s\n",
			g.label, r.DPThroughput, r.DPLatency, r.Goal,
			r.TaskThroughput, r.TaskLatency, r.Best, r.ModelSource)
	}

	var st serve.StatsSnapshot
	if err := getJSON(baseURL, "/stats", &st); err != nil {
		fmt.Fprintln(stderr, "fxbench: stats:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nserver: %d campaign(s) run, %d request(s) deduplicated, %d worker(s)\n",
		st.Campaigns, st.DedupHits, st.Workers)
	return code
}

// serveChaos runs the chaos campaign remotely and renders the report with
// the same writer the local -chaossweep mode uses.
func serveChaos(baseURL string, quick bool, seeds int, plan *fault.Plan, stdout, stderr io.Writer) int {
	req := map[string]any{"quick": quick, "seeds": seeds, "client": "fxbench"}
	if plan != nil {
		req["base"] = plan.Seed
		req["profile"] = plan.Prof.Name
	}
	var rep sweep.ChaosReport
	if err := postJSON(baseURL, "/chaossweep", req, &rep); err != nil {
		fmt.Fprintln(stderr, "fxbench:", err)
		return 1
	}
	rep.WriteText(stdout)
	return 0
}

func getJSON(base, path string, out any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}
