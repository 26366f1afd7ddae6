package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"fxpar/internal/mapping"
	"fxpar/internal/serve"
)

// serveSizes fixes the request counts of one serve-mix session.
type serveSizes struct {
	bodies      int    // distinct /optimize bodies
	setupBodies int    // of which issued untimed in set-up
	fillers     [2]int // non-cold requests per segment, by client
	warmups     int    // throw-away set-ups before the first session
	sessions    int    // measured sessions at nominalSeconds
	// tracedSessions is how many untraced and as many traced sessions a
	// traced run measures.
	tracedSessions int
}

var (
	fullServe  = serveSizes{bodies: 48, setupBodies: 16, fillers: [2]int{125, 125}, warmups: 8, sessions: 12, tracedSessions: 4}
	shortServe = serveSizes{bodies: 6, setupBodies: 3, fillers: [2]int{10, 10}, sessions: 1, tracedSessions: 1}
)

// measureBodies is how many /measure bodies set-up issues; the measured
// phase only ever repeats them.
const measureBodies = 4

// Request classes of the mix.
const (
	classCold    = "cold"    // POST /optimize, a body the server has not seen
	classDup     = "dup"     // POST /optimize, a body already answered
	classJob     = "job"     // GET /jobs/{id} of an answered body
	classStats   = "stats"   // GET /stats
	classMeasure = "measure" // POST /measure, a body already answered
)

var serveApps = []struct {
	name      string
	goalRatio float64
}{{"ffthist", 2.05}, {"radar", 2.14}, {"stereo", 2.75}}

// optimizeBody is the i-th distinct /optimize body in canonical order:
// app = i mod 3, P = 8 + i/3. Every body has its own (app, P) and so its own
// mapping.TableSpec.Key(): none is a cost-table memo hit for another.
func optimizeBody(i int) string {
	app := serveApps[i%len(serveApps)]
	p := 8 + i/len(serveApps)
	sets := []int{4, 6, 8}[(i/len(serveApps))%3]
	return fmt.Sprintf(`{"app":%q,"p":%d,"sets":%d,"quick":true,"goalRatio":%g}`, app.name, p, sets, app.goalRatio)
}

func measureBody(i int) string {
	app := serveApps[i%len(serveApps)]
	return fmt.Sprintf(`{"app":%q,"p":%d,"sets":4,"quick":true}`, app.name, 8+i/len(serveApps))
}

// request is one entry of the schedule. Body indexes optimizeBody for cold,
// dup and job requests and measureBody for measure requests.
type request struct {
	Class string
	Body  int
}

// segment is one cold request and the traffic after it: client 0 sends the
// cold request alone, then both clients send their fillers side by side. A
// segment ends when both are done, so a cold request never queues behind
// another and never shares the host's two cores with filler traffic — with
// fillers running beside it, its latency moved 20% between runs.
type segment struct {
	Cold    int
	Fillers [2][]request
}

// buildSchedule derives the whole measured phase from the seed. Cold bodies
// are drawn app by app in ascending P — the skeleton store shares cells
// between machine sizes of one app, and this keeps what each cold request
// finds there the same for every seed — while the seed picks which app goes
// next, every filler's class (70% dup, 15% job, 10% stats, 5% measure) and
// which answered body it repeats.
func buildSchedule(seed int64, sz serveSizes) []segment {
	rng := rand.New(rand.NewSource(seed))
	queues := make([][]int, len(serveApps))
	for i := sz.setupBodies; i < sz.bodies; i++ {
		queues[i%len(serveApps)] = append(queues[i%len(serveApps)], i)
	}
	answered := make([]int, sz.setupBodies)
	for i := range answered {
		answered[i] = i
	}
	var out []segment
	for len(out) < sz.bodies-sz.setupBodies {
		a := rng.Intn(len(queues))
		if len(queues[a]) == 0 {
			continue
		}
		seg := segment{Cold: queues[a][0]}
		queues[a] = queues[a][1:]
		for c, n := range sz.fillers {
			for k := 0; k < n; k++ {
				r := request{Body: answered[rng.Intn(len(answered))]}
				switch roll := rng.Intn(100); {
				case roll < 70:
					r.Class = classDup
				case roll < 85:
					r.Class = classJob
				case roll < 95:
					r.Class, r.Body = classStats, 0
				default:
					r.Class, r.Body = classMeasure, rng.Intn(measureBodies)
				}
				seg.Fillers[c] = append(seg.Fillers[c], r)
			}
		}
		out = append(out, seg)
		answered = append(answered, seg.Cold)
	}
	return out
}

// serveSession is one fxserve process's worth of state: the server behind a
// real listener, two keep-alive clients, and the per-class latencies.
type serveSession struct {
	e    *env
	rec  *recorder
	srv  *serve.Server
	http *http.Server
	done chan error
	url  string
	cl   [2]*http.Client

	mu      sync.Mutex
	jobIDs  map[int]string
	lat     map[string][]float64
	res     *runResult
	elapsed time.Duration
}

func startServe(e *env, rec *recorder, res *runResult) (*serveSession, error) {
	// A new process's view: no cost tables memoized, an empty registry.
	mapping.ResetTableMemo()
	srv, err := serve.New(serve.Options{Workers: 1, ReplayDir: "mem"})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &serveSession{
		e: e, rec: rec, srv: srv, res: res,
		http:   &http.Server{Handler: srv.Handler()},
		done:   make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		jobIDs: map[int]string{}, lat: map[string][]float64{},
	}
	for i := range s.cl {
		s.cl[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener, drains the server and waits for both to end.
func (s *serveSession) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // Serve's own error is read below
	<-s.done
	s.srv.Close()
	for _, c := range s.cl {
		c.CloseIdleConnections()
	}
}

// do sends one request on a client, checks the answer and, when timed,
// files its latency under the request's class.
func (s *serveSession) do(client int, r request, timed bool, rep string) {
	method, path, body := "POST", "/optimize", optimizeBody(r.Body)
	switch r.Class {
	case classJob:
		s.mu.Lock()
		method, path, body = "GET", "/jobs/"+s.jobIDs[r.Body], ""
		s.mu.Unlock()
	case classStats:
		method, path, body = "GET", "/stats", ""
	case classMeasure:
		path, body = "/measure", measureBody(r.Body)
	}
	var rec *recorder
	if timed {
		rec = s.rec
	}
	start := time.Now()
	id := rec.begin("serve."+r.Class, -1, rep)
	status, jobID, got, err := s.roundTrip(client, method, path, body)
	rec.end(id)
	ms := float64(time.Since(start)) / 1e6

	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, got)
	}
	if err == nil {
		switch r.Class {
		case classCold, classDup, classMeasure:
			err = s.e.gold.checkServe(method+" "+path+" "+body, string(got))
		case classJob:
			var snap serve.JobSnapshot
			if err = json.Unmarshal(got, &snap); err == nil && snap.State != "done" {
				err = fmt.Errorf("job %s is %q, want done", snap.ID, snap.State)
			}
		case classStats:
			err = json.Unmarshal(got, &serve.StatsSnapshot{})
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Class == classCold {
		s.jobIDs[r.Body] = jobID
	}
	if !timed {
		if err != nil {
			s.res.fail(fmt.Errorf("set-up %s %s: %w", method, path, err))
		}
		return
	}
	s.res.attempted++
	if err != nil {
		s.res.fail(fmt.Errorf("%s %s %s: %w", r.Class, method, path, err))
	}
	s.lat[r.Class] = append(s.lat[r.Class], ms)
}

func (s *serveSession) roundTrip(client int, method, path, body string) (status int, jobID string, got []byte, err error) {
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, "", nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.cl[client].Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	got, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Fxserve-Job"), got, err
}

// setup issues the first bodies and the /measure bodies, untimed, one after
// another; both clients open their connection here.
func (s *serveSession) setup(sz serveSizes) {
	for i := 0; i < sz.setupBodies; i++ {
		s.do(i%2, request{classCold, i}, false, "")
	}
	for i := 0; i < measureBodies; i++ {
		s.do(i%2, request{classMeasure, i}, false, "")
	}
}

// measure runs the scheduled segments and returns the MemStats deltas of
// the measured phase.
func (s *serveSession) measure(schedule []segment) (allocBytes, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for n, seg := range schedule {
		s.do(0, request{classCold, seg.Cold}, true, fmt.Sprintf("seg%d/client0", n))
		var wg sync.WaitGroup
		for c := range seg.Fillers {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rep := fmt.Sprintf("seg%d/client%d", n, c)
				for _, r := range seg.Fillers[c] {
					s.do(c, r, true, rep)
				}
			}(c)
		}
		wg.Wait()
	}
	s.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// serveGroup pools what the sessions of one kind (untraced or traced)
// measured.
type serveGroup struct {
	coldByBody map[int][]float64 // one latency per session, by cold body
	coldP50    []float64         // per session
	dupLQ      []float64         // per session: lower quartile of the duplicates' latencies
	lat        map[string][]float64
	elapsed    time.Duration
	stats      serve.StatsSnapshot // of the last session; the counts are the same in each
}

func (g *serveGroup) add(s *serveSession, schedule []segment) {
	if g.coldByBody == nil {
		g.coldByBody, g.lat = map[int][]float64{}, map[string][]float64{}
	}
	for n, seg := range schedule {
		g.coldByBody[seg.Cold] = append(g.coldByBody[seg.Cold], s.lat[classCold][n])
	}
	g.coldP50 = append(g.coldP50, median(s.lat[classCold]))
	g.dupLQ = append(g.dupLQ, lowerQuartile(s.lat[classDup]))
	for class, l := range s.lat {
		g.lat[class] = append(g.lat[class], l...)
	}
	g.elapsed += s.elapsed
	g.stats = s.srv.Stats()
}

// coldMS is the group's cold-request latency. One cold request is a few
// milliseconds of campaign and repeats poorly, and the bodies differ
// tenfold in cost, so each body is first reduced to its lower quartile over
// the sessions; the result is the mean over bodies.
func (g *serveGroup) coldMS() float64 {
	sum := 0.0
	for _, l := range g.coldByBody {
		sum += lowerQuartile(l)
	}
	return sum / float64(len(g.coldByBody))
}

// dupMS is the lower quartile over sessions of a session's lower-quartile
// duplicate latency. Measured on the reference host, a session's p10-p25
// repeat within 3% and its p50, on the slope of a wide distribution, within
// 10%; p50 and p99 are reported per layer.
func (g *serveGroup) dupMS() float64 { return lowerQuartile(g.dupLQ) }

// serveMetrics are the serving layer's own numbers over the group.
func (g *serveGroup) serveMetrics() map[string]float64 {
	total := 0
	for _, l := range g.lat {
		total += len(l)
	}
	return map[string]float64{
		"serve.cold_p99_ms":     percentile(g.lat[classCold], 99),
		"serve.cold_p50_ms":     median(g.lat[classCold]),
		"serve.dup_p50_ms":      median(g.lat[classDup]),
		"serve.dup_p99_ms":      percentile(g.lat[classDup], 99),
		"serve.job_get_p50_ms":  median(g.lat[classJob]),
		"serve.stats_p50_ms":    median(g.lat[classStats]),
		"serve.req_per_s":       float64(total) / g.elapsed.Seconds(),
		"serve.dedup_hit_ratio": float64(g.stats.DedupHits) / float64(g.stats.DedupHits+g.stats.Campaigns),
		"serve.campaigns_run":   float64(g.stats.Campaigns),
	}
}

// serveMix runs the serve-mix workload. A rep is one session: a fresh
// server (no cost table memoized, an empty registry), the set-up traffic,
// then the scheduled segments. A traced run alternates untraced sessions
// with sessions that put a span around every request.
func serveMix(e *env, rec *recorder) (*runResult, error) {
	sz := fullServe
	if e.short {
		sz = shortServe
	}
	schedule := buildSchedule(e.seed, sz)
	res := &runResult{cases: map[string]*caseSamples{"op": {}, "alt": {}}}

	session := func(rec *recorder, measured bool) (*serveSession, error) {
		s, err := startServe(e, rec, res)
		if err != nil {
			return nil, err
		}
		defer s.stop()
		s.setup(sz)
		if !measured {
			return s, nil
		}
		if res.setupS == 0 {
			res.setupS = time.Since(processStart).Seconds()
		}
		allocBytes, mallocs := s.measure(schedule)
		if rec == nil {
			res.allocBytes, res.mallocs = res.allocBytes+float64(allocBytes), res.mallocs+float64(mallocs)
		}
		return s, nil
	}

	// Warm-up: one set-up — a server start and the first campaigns — takes
	// about 0.2 s, so it is done several times on throw-away servers before
	// the first session: setup_s is then a sum no single slow call can move.
	for i := 0; i < sz.warmups; i++ {
		if _, err := session(nil, false); err != nil {
			return nil, err
		}
	}
	kinds := []*recorder{nil}
	sessions := e.repCount(sz.sessions, sz.sessions/2)
	if e.traced {
		kinds, sessions = []*recorder{nil, rec}, sz.tracedSessions
	}
	var plain, spanned serveGroup
	for i := 0; i < sessions; i++ {
		for _, r := range kinds {
			s, err := session(r, true)
			if err != nil {
				return nil, err
			}
			if r == nil {
				plain.add(s, schedule)
			} else {
				spanned.add(s, schedule)
			}
		}
	}
	colds := float64(sessions * len(schedule))
	res.allocBytes, res.mallocs = res.allocBytes/colds, res.mallocs/colds
	res.cases["op"].Untraced, res.cases["alt"].Untraced = plain.coldP50, plain.dupLQ
	res.opMS, res.altMS = plain.coldMS(), plain.dupMS()
	res.extra = plain.serveMetrics()
	if e.traced {
		res.cases["op"].Traced, res.cases["alt"].Traced = spanned.coldP50, spanned.dupLQ
		res.overheadX = spanned.coldMS() / plain.coldMS()
	}
	return res, nil
}
