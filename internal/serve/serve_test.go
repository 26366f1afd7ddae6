package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"fxpar/internal/serve"
)

// newTestServer stands up a Server behind httptest and tears both down.
func newTestServer(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends a JSON body and returns status + response bytes.
func post(t *testing.T, url, path string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, url, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestOptimizeEndToEnd: a quick /optimize request returns a feasible
// mapping whose simulated task throughput meets the requested goal, and an
// identical second request is a dedupe hit with byte-identical bytes.
func TestOptimizeEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{Workers: 2})
	body := map[string]any{"app": "ffthist", "p": 16, "sets": 6, "quick": true, "goalRatio": 2.05}

	code, first := post(t, ts.URL, "/optimize", body)
	if code != http.StatusOK {
		t.Fatalf("optimize: %d %s", code, first)
	}
	var res serve.OptimizeResult
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatalf("bad response %s: %v", first, err)
	}
	if res.App != "ffthist" || res.Best == "" || res.Goal <= 0 {
		t.Fatalf("response %+v", res)
	}
	if res.TaskThroughput < res.Goal {
		t.Errorf("chosen mapping misses the goal: %g < %g", res.TaskThroughput, res.Goal)
	}
	if res.TaskThroughput <= res.DPThroughput {
		t.Errorf("task parallelism did not beat data-parallel: %g <= %g", res.TaskThroughput, res.DPThroughput)
	}
	// The prediction is virtual time: the same on every host, engine and -j.
	if res.Best != "2 x data-parallel(8)" || res.PredLatency != 0.0054896 || res.PredThroughput != 364.3252696006995 {
		t.Errorf("prediction = %q latency %.17g throughput %.17g, want 2 x data-parallel(8), 0.0054896, 364.3252696006995",
			res.Best, res.PredLatency, res.PredThroughput)
	}

	code, second := post(t, ts.URL, "/optimize", body)
	if code != http.StatusOK {
		t.Fatalf("duplicate optimize: %d %s", code, second)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("duplicate response differs:\n%s\nvs\n%s", first, second)
	}
	st := s.Stats()
	if st.Campaigns != 1 || st.DedupHits != 1 {
		t.Errorf("stats: campaigns=%d dedupHits=%d, want 1 and 1", st.Campaigns, st.DedupHits)
	}
}

// TestMeasureEndToEnd: /measure simulates an explicit mapping, defaults to
// data-parallel, and keys chaotic runs separately from healthy ones.
func TestMeasureEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{Workers: 2})

	dp := map[string]any{"app": "radar", "p": 8, "sets": 6, "quick": true}
	code, dpBody := post(t, ts.URL, "/measure", dp)
	if code != http.StatusOK {
		t.Fatalf("measure dp: %d %s", code, dpBody)
	}
	var dpRes serve.MeasureResult
	if err := json.Unmarshal(dpBody, &dpRes); err != nil {
		t.Fatal(err)
	}
	if dpRes.Throughput <= 0 || dpRes.Latency <= 0 || dpRes.Makespan <= 0 {
		t.Fatalf("degenerate result %+v", dpRes)
	}
	if !strings.Contains(dpRes.Mapping, "data-parallel") {
		t.Errorf("default mapping = %q, want data-parallel", dpRes.Mapping)
	}

	pipe := map[string]any{"app": "radar", "p": 8, "sets": 6, "quick": true,
		"mapping": map[string]any{"modules": 1, "stages": []int{2, 2, 2, 2}}}
	code, pipeBody := post(t, ts.URL, "/measure", pipe)
	if code != http.StatusOK {
		t.Fatalf("measure pipeline: %d %s", code, pipeBody)
	}

	chaotic := map[string]any{"app": "radar", "p": 8, "sets": 6, "quick": true, "chaos": "42:delay"}
	code, chBody := post(t, ts.URL, "/measure", chaotic)
	if code != http.StatusOK {
		t.Fatalf("measure chaos: %d %s", code, chBody)
	}
	var chRes serve.MeasureResult
	if err := json.Unmarshal(chBody, &chRes); err != nil {
		t.Fatal(err)
	}
	if chRes.Chaos != "42:delay" {
		t.Errorf("chaos label %q", chRes.Chaos)
	}
	if chRes.Makespan <= dpRes.Makespan {
		t.Errorf("injected delays did not slow the run: %g <= %g", chRes.Makespan, dpRes.Makespan)
	}

	// Three distinct keys, zero dedupe.
	if st := s.Stats(); st.Campaigns != 3 || st.DedupHits != 0 {
		t.Errorf("stats: campaigns=%d dedupHits=%d, want 3 and 0", st.Campaigns, st.DedupHits)
	}
}

// TestChaosSweepEndToEnd: /chaossweep returns the deterministic campaign
// report with every seed accounted for.
func TestChaosSweepEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	code, body := post(t, ts.URL, "/chaossweep", map[string]any{"quick": true, "seeds": 4, "profile": "delay"})
	if code != http.StatusOK {
		t.Fatalf("chaossweep: %d %s", code, body)
	}
	var rep struct {
		Profile  string
		Seeds    int
		Survived int
		Failed   int
		Outcomes []struct{ Seed uint64 }
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Profile != "delay" || rep.Seeds != 4 || len(rep.Outcomes) != 4 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Survived+rep.Failed != 4 {
		t.Fatalf("outcomes unaccounted: %+v", rep)
	}
}

// TestBadRequests: malformed bodies, unknown apps and oversubscribed
// mappings fail with 400 and a JSON error, never a panic or a campaign.
func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{Workers: 1})
	cases := []struct {
		path string
		body string
		want string // substring of the error, when it matters
	}{
		{"/optimize", `{"app":"nope","p":8}`, ""},
		{"/optimize", `{"app":"ffthist"}`, ""},                      // p < 1
		{"/optimize", `{"app":"ffthist","p":8,"bogusField":1}`, ""}, // unknown field
		{"/optimize", `not json`, ""},
		{"/measure", `{"app":"radar","p":4,"quick":true,"mapping":{"modules":1,"stages":[8,8,8,8]}}`, ""}, // oversubscribed
		{"/measure", `{"app":"radar","p":8,"quick":true,"mapping":{"modules":1,"stages":[2,2]}}`, ""},     // wrong stage count
		{"/measure", `{"app":"radar","p":8,"quick":true,"chaos":"x:y"}`, ""},                              // bad chaos spec
		// Shapes only the program's own check rejects: each used to be
		// scheduled as a campaign that then panicked.
		{"/measure", `{"app":"ffthist","p":8,"quick":true,"mapping":{"modules":2,"stages":[4],"wideModules":2,"wideStages":[4]}}`,
			"ffthist: WideModules = 2 of 2"},
		{"/measure", `{"app":"stereo","p":30,"quick":true,"mapping":{"modules":1,"stages":[30]}}`,
			"stereo: data-parallel module of 30 processors exceeds the narrowest stage cap, 23"},
		{"/measure", `{"app":"radar","p":12,"quick":true,"mapping":{"modules":1,"stages":[12]}}`,
			"radar: data-parallel module of 12 processors exceeds the narrowest stage cap, 8"},
		{"/measure", `{"app":"radar","p":12,"quick":true,"mapping":{"modules":1,"stages":[1,9,1,1]}}`,
			"radar: stage 1 of 9 processors exceeds its cap, 8"},
		{"/chaossweep", `{"profile":"nope"}`, ""},
		{"/chaossweep", `{"quick":true,"procs":2}`, ""}, // a pipeline stage gets no processor
		{"/chaossweep", `{"quick":true,"procs":1}`, ""},
		{"/chaossweep", `{"quick":true,"n":48}`, ""}, // N not a power of two
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%s)", tc.path, tc.body, resp.StatusCode, out)
		}
		if !json.Valid(out) {
			t.Errorf("%s: non-JSON error body %q", tc.path, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s %s: error %s, want %q", tc.path, tc.body, out, tc.want)
		}
	}
	if st := s.Stats(); st.Campaigns != 0 {
		t.Errorf("bad requests scheduled %d campaigns", st.Campaigns)
	}
}

// TestAsyncAndJobEvents: an async submission returns 202 with the job, the
// job is streamable over SSE until a clean EOF whose final frame says done,
// and the result is then fetchable by re-posting the same body.
func TestAsyncAndJobEvents(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	body := map[string]any{"app": "stereo", "p": 8, "sets": 6, "quick": true, "async": true}

	code, sub := post(t, ts.URL, "/measure", body)
	if code != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", code, sub)
	}
	var snap serve.JobSnapshot
	if err := json.Unmarshal(sub, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" {
		t.Fatalf("no job ID in %s", sub)
	}

	// Stream the job's events to EOF: the final frame must say done.
	resp, err := http.Get(ts.URL + "/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last serve.JobSnapshot
	frames := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		frames++
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if frames == 0 || last.State != "done" {
		t.Fatalf("stream ended after %d frames in state %q, want done", frames, last.State)
	}

	// The job is visible in the listings…
	code, jb := get(t, ts.URL, "/jobs/"+snap.ID)
	if code != http.StatusOK {
		t.Fatalf("job lookup: %d %s", code, jb)
	}
	code, list := get(t, ts.URL, "/jobs")
	if code != http.StatusOK || !strings.Contains(string(list), snap.ID) {
		t.Fatalf("job listing: %d %s", code, list)
	}
	// …and a blocking duplicate of the same body (async off) returns the
	// cached result immediately.
	sync := map[string]any{"app": "stereo", "p": 8, "sets": 6, "quick": true}
	code, res := post(t, ts.URL, "/measure", sync)
	if code != http.StatusOK {
		t.Fatalf("cached fetch: %d %s", code, res)
	}
	var mres serve.MeasureResult
	if err := json.Unmarshal(res, &mres); err != nil || mres.Makespan <= 0 {
		t.Fatalf("cached result %s: %v", res, err)
	}

	if _, err := http.Get(ts.URL + "/jobs/j-nope/events"); err != nil {
		t.Fatal(err)
	}
	code, _ = get(t, ts.URL, "/jobs/j-nope")
	if code != http.StatusNotFound {
		t.Errorf("missing job lookup: %d, want 404", code)
	}
}

// TestJobEventsDrainOnClose: closing the server while a client streams an
// unfinished job's events drains the job, and the stream ends on a frame
// boundary whose last frame says done. No handler goroutine is left. The
// one worker holds the job until Close begins, so the job is not done when
// the client attaches, on any host.
func TestJobEventsDrainOnClose(t *testing.T) {
	s, err := serve.New(serve.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.HoldJobsUntilClose()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	before := runtime.NumGoroutine()
	client := &http.Client{Transport: &http.Transport{}}

	body, _ := json.Marshal(map[string]any{"app": "ffthist", "p": 8, "sets": 64, "async": true})
	resp, err := client.Post(ts.URL+"/measure", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var snap serve.JobSnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d %v", resp.StatusCode, err)
	}

	events, err := client.Get(ts.URL + "/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(events.Body)
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(first, `"state":"done"`) {
		t.Fatalf("job finished before the server closed; first frame %q", first)
	}
	s.Close()
	rest, err := io.ReadAll(br)
	events.Body.Close()
	if err != nil {
		t.Fatalf("stream ended with transport error: %v", err)
	}
	stream := first + string(rest)
	if !strings.HasSuffix(stream, "\n\n") {
		t.Fatalf("stream truncated mid-frame: %q", stream)
	}
	frames := strings.Split(strings.TrimSuffix(stream, "\n\n"), "\n\n")
	var last serve.JobSnapshot
	if err := json.Unmarshal([]byte(strings.TrimPrefix(frames[len(frames)-1], "data: ")), &last); err != nil || last.State != "done" {
		t.Fatalf("last frame %q (%v), want state done", frames[len(frames)-1], err)
	}

	client.CloseIdleConnections()
	for deadline := time.Now().Add(3 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before the stream, %d after", before, runtime.NumGoroutine())
		}
	}
}

// TestPanickingCampaignFailsOnlyItsJob: a campaign that panics (a chaos plan
// that kills the run) fails its own job with a 500, is cached like any
// failure, and leaves the one-worker pool able to run the next request.
func TestPanickingCampaignFailsOnlyItsJob(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{Workers: 1})
	lethal := map[string]any{"app": "ffthist", "p": 8, "sets": 6, "quick": true, "chaos": "53:kill"}
	code, first := post(t, ts.URL, "/measure", lethal)
	if code != http.StatusInternalServerError || !strings.Contains(string(first), "campaign panicked") {
		t.Fatalf("lethal measure: %d %s, want 500 campaign panicked", code, first)
	}
	code, second := post(t, ts.URL, "/measure", lethal)
	if code != http.StatusInternalServerError || !bytes.Equal(first, second) {
		t.Errorf("duplicate of the failed job: %d %s, want the same bytes", code, second)
	}
	if st := s.Stats(); st.Failed != 1 {
		t.Errorf("stats after the panic: %+v, want Failed 1", st)
	}
	healthy := map[string]any{"app": "ffthist", "p": 8, "sets": 6, "quick": true}
	if code, out := post(t, ts.URL, "/measure", healthy); code != http.StatusOK {
		t.Fatalf("request after the panic: %d %s", code, out)
	}
}

// TestMonitorEmbedded: the campaign monitor rides along — /healthz,
// /snapshot and the text front page answer on the same mux.
func TestMonitorEmbedded(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	if code, body := get(t, ts.URL, "/healthz"); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}
	code, body := get(t, ts.URL, "/snapshot")
	if code != http.StatusOK || !json.Valid(body) {
		t.Fatalf("snapshot: %d %s", code, body)
	}
	if code, body := get(t, ts.URL, "/"); code != http.StatusOK || !strings.Contains(string(body), "campaign monitor") {
		t.Fatalf("front page: %d %s", code, body)
	}
}

// TestFailedJobIs500: an infeasible goal fails the job; waiters get a 500
// with the error, and the failure is cached like any result.
func TestFailedJobIs500(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{Workers: 1})
	// A goal far beyond anything 8 processors can deliver.
	body := map[string]any{"app": "ffthist", "p": 8, "sets": 6, "quick": true, "goal": 1e12}
	code, first := post(t, ts.URL, "/optimize", body)
	if code != http.StatusInternalServerError {
		t.Fatalf("infeasible optimize: %d %s", code, first)
	}
	if !strings.Contains(string(first), "infeasible") {
		t.Errorf("error body %s", first)
	}
	code, second := post(t, ts.URL, "/optimize", body)
	if code != http.StatusInternalServerError || !bytes.Equal(first, second) {
		t.Errorf("cached failure: %d %s", code, second)
	}
	if st := s.Stats(); st.Failed != 1 || st.Campaigns != 1 {
		t.Errorf("stats after failure: %+v", st)
	}
}

// TestServerCloseRejectsNewWork: submissions after Close get 503.
func TestServerCloseRejectsNewWork(t *testing.T) {
	s, err := serve.New(serve.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	data, _ := json.Marshal(map[string]any{"app": "ffthist", "p": 4, "quick": true})
	resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post after Close: %d, want 503", resp.StatusCode)
	}
	s.Close() // idempotent
}

// TestStatsShape: /stats returns the counters as JSON, the cost-table
// store's among them: an /optimize whose tables an earlier request built is
// a memory hit. The store is process-wide, so only deltas are asserted.
func TestStatsShape(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, ReplayDir: "mem"})
	stats := func() (serve.StatsSnapshot, string) {
		code, body := get(t, ts.URL, "/stats")
		if code != http.StatusOK {
			t.Fatalf("stats: %d %s", code, body)
		}
		var st serve.StatsSnapshot
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return st, string(body)
	}
	st, body := stats()
	if st.Workers < 1 {
		t.Errorf("stats %+v", st)
	}
	if st.Skeletons == nil {
		t.Errorf("replay enabled but no skeleton stats: %s", body)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatal(err)
	}
	for block, keys := range map[string]string{"tables": "Computed Disk Memory", "skeletons": "Captured Disk Memory"} {
		var counters map[string]int64
		if err := json.Unmarshal(raw[block], &counters); err != nil {
			t.Fatalf("%s block: %v", block, err)
		}
		var got []string
		for k := range counters {
			got = append(got, k)
		}
		sort.Strings(got)
		if strings.Join(got, " ") != keys {
			t.Errorf("%s block keys %v, want %s", block, got, keys)
		}
	}

	// Same program and size, different goal: a new campaign over the same
	// cost tables.
	for i, ratio := range []float64{2.05, 1.5} {
		before, _ := stats()
		body := map[string]any{"app": "ffthist", "p": 4, "sets": 2, "quick": true, "goalRatio": ratio}
		if code, out := post(t, ts.URL, "/optimize", body); code != http.StatusOK {
			t.Fatalf("optimize: %d %s", code, out)
		}
		after, _ := stats()
		if i == 1 && after.Tables.Memory <= before.Tables.Memory {
			t.Errorf("repeated /optimize: tables.Memory %d -> %d, want a memory hit", before.Tables.Memory, after.Tables.Memory)
		}
	}
}

// TestEngineOption: a named engine is accepted and an unknown one refused.
func TestEngineOption(t *testing.T) {
	s, err := serve.New(serve.Options{Workers: 1, Engine: "coop"})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := serve.New(serve.Options{Engine: "warpdrive"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}
