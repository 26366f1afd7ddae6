// Package serve is the mapping-as-a-service layer: a long-running HTTP
// server that answers optimization, measurement and chaos-sweep requests
// over the simulated machine, built from the pieces the batch drivers
// already use (measured cost models, the mapping optimizer, the chaos
// campaign, the sweep monitor).
//
//	POST /optimize        — find the latency-optimal mapping meeting a
//	                        throughput goal; runs DP and chosen mappings
//	POST /measure         — simulate one explicit mapping (optionally chaotic)
//	POST /chaossweep      — fault-injection campaign across seeds
//	GET  /jobs            — every retained job
//	GET  /jobs/{id}       — one job
//	GET  /jobs/{id}/events— per-job SSE stream until the job finishes
//	GET  /stats           — dedupe counters, job tallies, store stats
//	GET  /healthz         — liveness
//	GET  /snapshot,/events,/ — the embedded sweep campaign monitor
//
// Identical in-flight requests collapse into one campaign: every request
// body resolves to a content key (the same key the cost-table memo and
// skeleton store use), the first request per key schedules a job, and
// every later request — concurrent or after completion — attaches to that
// job and is answered from its canonical result bytes. K identical clients
// cost one campaign and read byte-identical responses.
//
// Campaigns run on a bounded worker pool with per-client round-robin
// fairness and priority override (see Pool), so one chatty client cannot
// monopolize the simulator.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"fxpar/internal/cas"
	"fxpar/internal/experiments"
	"fxpar/internal/fault"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
	"fxpar/internal/sweep"
)

// maxBody bounds request bodies; every valid request is tiny JSON.
const maxBody = 1 << 20

// Options configures a Server.
type Options struct {
	// Workers bounds concurrently running jobs AND the host parallelism of
	// each job's internal measurement campaign; <= 0 means GOMAXPROCS.
	Workers int
	// CacheDir, when non-empty, persists measured cost tables on disk so
	// campaigns survive server restarts (see mapping.BuildOptions).
	CacheDir string
	// ReplayDir, when non-empty, enables the skeleton-replay backend with
	// an on-disk store rooted there; "mem" enables it purely in-process.
	ReplayDir string
	// Engine selects the machine execution engine by name ("" = default).
	// Engines change host wall-clock only, never a simulated number.
	Engine string
	// KeepDone bounds retained finished jobs (the response cache);
	// <= 0 means 1024.
	KeepDone int
}

// Server is the mapping-as-a-service campaign server. Create with New,
// serve Handler(), and Close when done.
type Server struct {
	opts   Options
	eng    machine.Engine
	cost   sim.CostModel
	replay *mapping.ReplayOptions

	reg  *registry
	pool *Pool
	mon  *sweep.Monitor
	prev *sweep.Monitor
	mux  *http.ServeMux

	done      chan struct{}
	closeOnce sync.Once
}

// New builds a server and installs its campaign monitor as the
// process-global sweep observer (restored on Close), so every job's
// measurement campaign streams progress over GET /events.
func New(opts Options) (*Server, error) {
	var eng machine.Engine
	if opts.Engine != "" {
		e, err := machine.EngineByName(opts.Engine)
		if err != nil {
			return nil, err
		}
		eng = e
	}
	s := &Server{
		opts: opts,
		eng:  eng,
		cost: sim.Paragon(),
		reg:  newRegistry(opts.KeepDone),
		mon:  sweep.NewMonitor(),
		done: make(chan struct{}),
	}
	switch opts.ReplayDir {
	case "":
	case "mem":
		s.replay = &mapping.ReplayOptions{Store: skeleton.NewStore("")}
	default:
		s.replay = &mapping.ReplayOptions{Store: skeleton.NewStore(opts.ReplayDir)}
	}
	// A long-running daemon must not grow its snapshot without bound.
	s.mon.SetKeep(64)
	s.prev = sweep.Activate(s.mon)
	s.pool = NewPool(opts.Workers, s.runJob)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /optimize", s.handleOptimize)
	mux.HandleFunc("POST /measure", s.handleMeasure)
	mux.HandleFunc("POST /chaossweep", s.handleChaosSweep)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	// Everything else is the campaign monitor: /snapshot, /events, /.
	mux.Handle("/", s.mon.ServeMux())
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Monitor returns the embedded campaign monitor.
func (s *Server) Monitor() *sweep.Monitor { return s.mon }

// Close drains the job pool (every queued job still owes a response), ends
// SSE subscribers, and restores the previous global monitor. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.pool.Close()
		close(s.done)
		s.mon.Close()
		if sweep.ActiveMonitor() == s.mon {
			sweep.Activate(s.prev)
		}
	})
}

// buildOptions is the per-job campaign configuration.
func (s *Server) buildOptions() mapping.BuildOptions {
	return mapping.BuildOptions{
		Workers:  s.opts.Workers,
		CacheDir: s.opts.CacheDir,
		Engine:   s.eng,
		Replay:   s.replay,
	}
}

// runJob executes one job on a pool worker. A panicking campaign fails the
// job, never the server.
func (s *Server) runJob(j *Job) {
	j.setRunning()
	var result []byte
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("campaign panicked: %v", r)
			}
		}()
		result, err = j.run()
	}()
	j.finish(result, err)
}

// reqMeta is the submission envelope shared by every request kind.
type reqMeta struct {
	// Client is the fairness bucket; "" buckets anonymous requests together.
	Client string `json:"client"`
	// Priority orders dispatch; higher overtakes the round-robin ring.
	Priority int `json:"priority"`
	// Async makes the submission return 202 + job metadata immediately
	// instead of waiting for the result (poll /jobs/{id} or stream
	// /jobs/{id}/events).
	Async bool `json:"async"`
}

// OptimizeRequest is POST /optimize: find the latency-optimal mapping of
// app on p processors meeting a throughput goal, and simulate both the
// data-parallel baseline and the chosen mapping.
type OptimizeRequest struct {
	App   string `json:"app"`
	P     int    `json:"p"`
	Sets  int    `json:"sets"`  // stream length (default 8)
	Quick bool   `json:"quick"` // reduced data sizes, same structure
	// Goal is the absolute throughput goal (data sets per simulated
	// second). When 0, GoalRatio x the model's data-parallel throughput is
	// used instead — the paper's relative-goal formulation. Both zero means
	// optimize latency alone.
	Goal      float64 `json:"goal"`
	GoalRatio float64 `json:"goalRatio"`
	reqMeta
}

// OptimizeResult is the canonical /optimize response body. Every field is
// deterministic in virtual time: duplicate requests read identical bytes.
type OptimizeResult struct {
	App            string  `json:"app"`
	Params         string  `json:"params"`
	P              int     `json:"p"`
	Sets           int     `json:"sets"`
	Goal           float64 `json:"goal"`
	Best           string  `json:"best"`
	PredLatency    float64 `json:"predLatency"`
	PredThroughput float64 `json:"predThroughput"`
	DPThroughput   float64 `json:"dpThroughput"`
	DPLatency      float64 `json:"dpLatency"`
	TaskThroughput float64 `json:"taskThroughput"`
	TaskLatency    float64 `json:"taskLatency"`
	ModelSource    string  `json:"modelSource"`
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Sets == 0 {
		req.Sets = 8
	}
	a, err := resolveApp(req.App, req.P, req.Sets, req.Quick, s.cost, s.replay)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.Goal < 0 || req.GoalRatio < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("goal and goalRatio must be >= 0"))
		return
	}
	// The key is the cost-table content key plus everything else that
	// shapes the response — Sets rides in a.Params.
	key := fmt.Sprintf("optimize|%s|sets=%d|goal=%g|goalRatio=%g", a.spec.Key(), req.Sets, req.Goal, req.GoalRatio)
	s.submit(w, r, "optimize", key, req.reqMeta, func() ([]byte, error) {
		// The Table 1 cell, by the call experiments.Table1 makes per row.
		res, err := a.Optimize(s.cost, req.P, req.Goal, req.GoalRatio, s.buildOptions(), func() *machine.Machine {
			return newMachine(req.P, s.cost, s.eng, nil)
		})
		if err != nil {
			return nil, err
		}
		return canonical(OptimizeResult{
			App: a.Name, Params: a.Params, P: req.P, Sets: req.Sets,
			Goal: res.Goal, Best: res.Choice.String(),
			PredLatency: res.Choice.PredLatency, PredThroughput: res.Choice.PredThroughput,
			DPThroughput: res.DP.Stream.Throughput, DPLatency: res.DP.Stream.Latency,
			TaskThroughput: res.Task.Stream.Throughput, TaskLatency: res.Task.Stream.Latency,
			ModelSource: res.ModelSource,
		})
	})
}

// MeasureRequest is POST /measure: simulate app under one explicit mapping
// (default: data-parallel on all processors), optionally under a chaos
// plan ("seed[:profile]", as the -chaos flags accept).
type MeasureRequest struct {
	App     string          `json:"app"`
	P       int             `json:"p"`
	Sets    int             `json:"sets"`
	Quick   bool            `json:"quick"`
	Mapping mapping.Mapping `json:"mapping"`
	Chaos   string          `json:"chaos"`
	reqMeta
}

// MeasureResult is the canonical /measure response body.
type MeasureResult struct {
	App        string  `json:"app"`
	Params     string  `json:"params"`
	P          int     `json:"p"`
	Sets       int     `json:"sets"`
	Mapping    string  `json:"mapping"`
	Chaos      string  `json:"chaos,omitempty"`
	Throughput float64 `json:"throughput"`
	Latency    float64 `json:"latency"`
	Makespan   float64 `json:"makespan"`
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	var req MeasureRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Sets == 0 {
		req.Sets = 8
	}
	a, err := resolveApp(req.App, req.P, req.Sets, req.Quick, s.cost, s.replay)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if mp := req.Mapping; mp.Modules == 0 && len(mp.Stages) == 0 && mp.WideModules == 0 && len(mp.WideStages) == 0 {
		req.Mapping = a.DataParallel(req.P)
	}
	if err := a.Validate(req.Mapping, req.P); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	plan, err := fault.Parse(req.Chaos)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	chaos := ""
	if plan != nil {
		chaos = plan.String() // canonical: "7" and "7:havoc" are one key
	}
	key := measureKey(a, req.Mapping, req.P, chaos, s.cost)
	s.submit(w, r, "measure", key, req.reqMeta, func() ([]byte, error) {
		out := a.Run(newMachine(req.P, s.cost, s.eng, plan.Machine()), req.Mapping)
		return canonical(MeasureResult{
			App: a.Name, Params: a.Params, P: req.P, Sets: req.Sets,
			Mapping: req.Mapping.String(), Chaos: chaos,
			Throughput: out.Stream.Throughput, Latency: out.Stream.Latency, Makespan: out.Makespan,
		})
	})
}

// ChaosSweepRequest is POST /chaossweep: the fault-injection campaign of
// fxchaos as a service — Seeds decorrelated chaotic runs, each verified
// against the healthy reference.
type ChaosSweepRequest struct {
	Procs   int    `json:"procs"`
	N       int    `json:"n"`
	Sets    int    `json:"sets"`
	Seeds   int    `json:"seeds"`
	Base    uint64 `json:"base"`
	Profile string `json:"profile"`
	Quick   bool   `json:"quick"`
	reqMeta
}

func (s *Server) handleChaosSweep(w http.ResponseWriter, r *http.Request) {
	var req ChaosSweepRequest
	if !decode(w, r, &req) {
		return
	}
	cfg := experiments.DefaultChaos()
	if req.Quick {
		cfg = experiments.QuickChaos()
	}
	if req.Procs > 0 {
		cfg.Procs = req.Procs
	}
	if req.N > 0 {
		cfg.N = req.N
	}
	if req.Sets > 0 {
		cfg.Sets = req.Sets
	}
	if req.Seeds > 0 {
		cfg.Seeds = req.Seeds
	}
	if req.Base > 0 {
		cfg.Base = req.Base
	}
	if req.Profile != "" {
		prof, err := fault.ProfileByName(req.Profile)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		cfg.Prof = prof
	}
	if err := cfg.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	cfg.Workers, cfg.Engine = s.opts.Workers, s.eng
	// Workers and Engine change host time only, so they stay out of the key.
	key := fmt.Sprintf("chaossweep|procs=%d|n=%d|sets=%d|seeds=%d|base=%d|profile=%s",
		cfg.Procs, cfg.N, cfg.Sets, cfg.Seeds, cfg.Base, cfg.Prof.Name)
	s.submit(w, r, "chaossweep", key, req.reqMeta, func() ([]byte, error) {
		return canonical(experiments.Chaos(cfg))
	})
}

// submit is the shared singleflight submission path: resolve the job for
// key (creating and scheduling it only for the first request), then answer
// — immediately for async submissions, from the job's canonical result
// bytes otherwise.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind, key string, meta reqMeta, run func() ([]byte, error)) {
	select {
	case <-s.done:
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("server is shutting down"))
		return
	default:
	}
	j, created := s.reg.getOrCreate(kind, key, meta.Client, meta.Priority)
	if created {
		j.run = run
		s.pool.Submit(j)
	}
	w.Header().Set("X-Fxserve-Job", j.ID)
	if meta.Async {
		writeJSON(w, http.StatusAccepted, j.Snapshot())
		return
	}
	select {
	case <-j.Done():
	case <-r.Context().Done():
		return // client gone; the job keeps running for other waiters
	}
	state, result, errMsg := j.Result()
	if state == JobFailed {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("%s", errMsg))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(result) //nolint:errcheck // client gone is not our error
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.snapshots())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// handleJobEvents streams one JobSnapshot JSON frame per state change (SSE,
// coalesced) plus a heartbeat, ending with the final frame and a clean EOF
// when the job finishes, or between frames when the server shuts down.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	j.ServeEvents(w, r, func() any { return j.Snapshot() }, j.Done(), s.done)
}

// StatsSnapshot is GET /stats: the serving-layer counters.
type StatsSnapshot struct {
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	Campaigns int64  `json:"campaigns"` // jobs created (deduped campaigns run)
	DedupHits int64  `json:"dedupHits"` // requests answered by an existing job
	Workers   int    `json:"workers"`
	Engine    string `json:"engine,omitempty"`
	// Tables reports the process-wide cost-table store's lookup counters.
	Tables cas.Stats `json:"tables"`
	// Skeletons reports the replay store counters when replay is enabled.
	Skeletons *skeleton.StoreStats `json:"skeletons,omitempty"`
}

// Stats snapshots the serving counters.
func (s *Server) Stats() StatsSnapshot {
	q, run, done, failed := s.reg.counts()
	st := StatsSnapshot{
		Queued: q, Running: run, Done: done, Failed: failed,
		Campaigns: s.reg.campaigns.Load(), DedupHits: s.reg.dedupHits.Load(),
		Workers: sweep.Workers(s.opts.Workers), Engine: s.opts.Engine,
		Tables: mapping.TableStats(),
	}
	if s.replay != nil {
		ss := s.replay.Store.Stats()
		st.Skeletons = &ss
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// decode parses a JSON request body, rejecting unknown fields so request
// typos fail loudly instead of silently running a different campaign.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// canonical renders a result as its canonical bytes: indented JSON with a
// trailing newline, the exact bytes every duplicate response replays.
func canonical(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is not our error
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
