package mapping

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"fxpar/internal/fsatomic"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
	"fxpar/internal/sweep"
)

// TableSpec identifies one cost-table build by content: the application, its
// parameters, the machine size, and every cost-model constant. Two specs with
// equal keys describe byte-identical tables, so the tables can be memoized
// across calls and across process invocations.
type TableSpec struct {
	// App names the application ("ffthist", "radar", ...).
	App string
	// Params is a canonical rendering of the application parameters that
	// affect per-set stage times (data sizes, kernel constants — not the
	// stream length).
	Params string
	// P is the machine size the tables cover (entries 1..P).
	P int
	// Stages are the stage names, in pipeline order.
	Stages []string
	// Cost holds the simulator's cost constants.
	Cost sim.CostModel
}

// Key renders the spec as a canonical string: the content key of the memo
// caches. CostModel is a flat struct of float64 fields, so %+v yields a
// stable field-name=value rendering in declaration order.
func (s TableSpec) Key() string {
	return fmt.Sprintf("app=%s|params=%s|P=%d|stages=%v|cost=%+v", s.App, s.Params, s.P, s.Stages, s.Cost)
}

// Tables holds the measured time tables of one spec: StageT[s][p] is the
// per-set time of stage s on p processors and DPT[p] the whole-program
// data-parallel time, both with index 0 unused, exactly as Model consumes
// them.
type Tables struct {
	// Key echoes the spec key the tables were built under, so a disk cache
	// hit can be verified against hash collisions and stale files.
	Key    string
	StageT [][]float64
	DPT    []float64
}

// TableSource says where BuildTables found the tables.
type TableSource int

const (
	// SourceComputed: the tables were built by running simulations.
	SourceComputed TableSource = iota
	// SourceMemory: in-process cache hit, no simulation ran.
	SourceMemory
	// SourceDisk: on-disk cache hit, no simulation ran.
	SourceDisk
)

func (s TableSource) String() string {
	switch s {
	case SourceComputed:
		return "computed"
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	}
	return fmt.Sprintf("TableSource(%d)", int(s))
}

// BuildOptions configures a table build campaign.
type BuildOptions struct {
	// Workers bounds the host-parallel simulation pool; <= 0 means one
	// worker per CPU (see sweep.Workers).
	Workers int
	// CacheDir, when non-empty, enables the on-disk JSON cache: tables are
	// read from and written to CacheDir keyed by a hash of the spec key.
	CacheDir string
	// Engine selects the execution engine for the measurement simulations
	// (nil: the machine package default). Engines are host-time strategy
	// only — every virtual-time measurement is engine-independent — so the
	// engine is deliberately NOT part of the memo key: tables computed under
	// one engine are valid for all.
	Engine machine.Engine
	// Replay, when non-nil, enables the skeleton-replay backend for the
	// measurement closures: each table cell is answered by re-costing a
	// stored communication skeleton instead of running a simulation
	// whenever the store has one (see ReplayOptions). Cells.Measure consults
	// it; BuildTables itself only threads it through.
	Replay *ReplayOptions
}

// ReplayOptions is the skeleton-replay backend of a table build: a
// content-addressed skeleton store plus the base cost model cells are
// captured under. A cell requested at exactly Base re-costs bitwise
// identically to a live simulation (the replay is the recorded run); a cell
// requested at another cost model is an analytic re-cost of the Base
// skeleton — exact for healthy runs up to floating-point rounding, and in
// practice bitwise for power-of-two parameter scalings (see the replay
// campaign's cross-checks). This is what turns a mapping search across
// machine parameterizations into one traced simulation per cell shape plus
// thousands of cheap DAG evaluations.
type ReplayOptions struct {
	// Store holds the captured cell skeletons (in-process and, when its
	// directory is set, shared on disk across processes and -j workers).
	Store *skeleton.Store
	// Base is the cost model cell skeletons are captured under. Campaigns
	// that sweep machine parameters all capture at one Base and re-cost
	// everywhere else. The zero value means "capture at whatever model the
	// build requests": every replay is then an identity replay (bitwise
	// equal to the live run), which still displaces simulation whenever the
	// store — in-process or on disk — already holds the cell.
	Base sim.CostModel

	// skip remembers cells proven non-replayable (their live metric is not
	// a DAG makespan — e.g. a stream latency that excludes teardown), so a
	// cross-cost build does not re-capture them on every variant.
	skip sync.Map // key string -> struct{}
}

// SpecSuffix returns the marker a replay-first build must append to its
// table-spec params when building for target: analytically re-costed
// tables (target != Base) carry the base model in their memo key so they
// never collide with live-simulated tables for the same target, which
// would make results depend on which mode ran first.
func (r *ReplayOptions) SpecSuffix(target sim.CostModel) string {
	if r == nil || r.Store == nil || r.Base == (sim.CostModel{}) || target == r.Base {
		return ""
	}
	return fmt.Sprintf("|replay-base=%+v", r.Base)
}

// errNotMakespan marks a capture whose live value is not its skeleton's
// makespan: the cell cannot be answered by re-costing a DAG.
var errNotMakespan = errors.New("mapping: cell value is not a skeleton makespan")

// Eval answers one table cell replay-first and reports whether it could:
// a false return means the caller must fall back to a live simulation at
// target (which is also the only path that can answer non-makespan cells).
//
// On a store hit the cell costs one analytic DAG evaluation. On a miss,
// capture runs one live traced simulation at Base and must return the
// folded skeleton together with the cell's live value at Base; the
// skeleton is stored only if its makespan IS that value — the guard that
// keeps metrics which are not pure DAG makespans from ever being replayed.
// The store is filled through its one fill path, GetOrCapture, so concurrent
// builds that share a cell capture it once and Stats().Captured counts it.
func (r *ReplayOptions) Eval(key skeleton.StoreKey, target sim.CostModel,
	capture func(base sim.CostModel) (*skeleton.Skeleton, float64, error)) (float64, bool) {
	if r == nil || r.Store == nil {
		return 0, false
	}
	base := r.Base
	if base == (sim.CostModel{}) {
		base = target
	}
	key.Cost = base
	ks := key.Key()
	if _, bad := r.skip.Load(ks); bad {
		return 0, false
	}
	var live float64
	ran := false // this call ran the capture itself (it did not join another's)
	sk, _, err := r.Store.GetOrCapture(key, func() (*skeleton.Skeleton, error) {
		sk, v, err := capture(base)
		if err != nil {
			return nil, err
		}
		if sk == nil || sk.Makespan != v {
			live, ran = v, true
			return nil, errNotMakespan
		}
		return sk, nil
	})
	if errors.Is(err, errNotMakespan) {
		r.skip.Store(ks, struct{}{})
		// The capture was the live run; at the base model its value stands
		// even though the cell cannot be replayed at other cost models.
		return live, ran && target == base
	}
	if err != nil {
		return 0, false
	}
	if target == base {
		return sk.Makespan, true
	}
	mk, err := sk.Recost(skeleton.Params{Cost: &target})
	return mk, err == nil
}

// tableMemo is the in-process cache, shared by every build in the process.
var tableMemo sync.Map // key string -> Tables

// tableFlight dedupes concurrent in-flight builds of the same spec: when a
// serving process fields many simultaneous requests over one application,
// only the first runs the measurement campaign — the rest wait for its
// tables instead of each re-simulating the full nStages·P grid.
var (
	tableFlightMu sync.Mutex
	tableFlight   = map[string]*tableCall{}
)

// tableCall is one in-flight build; done closes when the leader finishes.
type tableCall struct {
	done chan struct{}
	t    Tables
	err  error
}

// cachePath maps a spec key to its cache file. FNV-64a keeps filenames
// short; the stored Key field guards against collisions.
func cachePath(dir, key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(dir, fmt.Sprintf("fxtab-%016x.json", h.Sum64()))
}

// readDiskCache loads and verifies a cached table file. Any failure — file
// absent, malformed JSON, key mismatch, wrong shape — is a miss.
func readDiskCache(path, key string, nStages, p int) (Tables, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Tables{}, false
	}
	var t Tables
	if err := json.Unmarshal(data, &t); err != nil || t.Key != key {
		return Tables{}, false
	}
	if len(t.StageT) != nStages || len(t.DPT) != p+1 {
		return Tables{}, false
	}
	for _, tab := range t.StageT {
		if len(tab) != p+1 {
			return Tables{}, false
		}
	}
	return t, true
}

// writeDiskCache persists tables best-effort: a cache write failure never
// fails the build. The write goes through fsatomic — the temp file lives in
// the cache directory itself, never os.TempDir, so the rename is atomic
// even when concurrent -j campaign workers share one cache dir (rename is
// only atomic within a filesystem, and a cross-device fallback could expose
// half-written JSON under the final name).
func writeDiskCache(path string, t Tables) {
	data, err := json.Marshal(t)
	if err != nil {
		return
	}
	_ = fsatomic.WriteFile(path, append(data, '\n'))
}

// BuildTables returns the cost tables for spec, consulting the in-process
// memo and then the optional disk cache before measuring. A miss fans the
// nStages·P stage measurements and P data-parallel measurements out over a
// sweep worker pool — each job is one isolated simulation — and the
// assembled tables are stored in both caches.
//
// stage(s, p) must return the per-set time of stage s on p processors and
// dp(p) the whole-program data-parallel per-set time; both must be pure
// functions of the spec (the memoization contract). Simulations are
// deterministic in virtual time, so parallel and serial builds produce
// identical tables.
func BuildTables(spec TableSpec, opt BuildOptions,
	stage func(s, p int) float64, dp func(p int) float64) (Tables, TableSource, error) {
	key := spec.Key()
	nStages := len(spec.Stages)
	if nStages == 0 || spec.P < 1 {
		return Tables{}, SourceComputed, fmt.Errorf("mapping: bad table spec %q", key)
	}
	if v, ok := tableMemo.Load(key); ok {
		return v.(Tables), SourceMemory, nil
	}

	// Singleflight on the content key: join an in-flight build of the same
	// spec rather than duplicating its simulation campaign. Joiners report
	// SourceMemory — they did not compute anything.
	tableFlightMu.Lock()
	if c, ok := tableFlight[key]; ok {
		tableFlightMu.Unlock()
		<-c.done
		if c.err != nil {
			return Tables{}, SourceComputed, c.err
		}
		return c.t, SourceMemory, nil
	}
	call := &tableCall{done: make(chan struct{})}
	tableFlight[key] = call
	tableFlightMu.Unlock()

	t, src, err := buildTablesUncached(key, spec, opt, stage, dp)
	call.t, call.err = t, err
	tableFlightMu.Lock()
	delete(tableFlight, key)
	tableFlightMu.Unlock()
	close(call.done)
	return t, src, err
}

// buildTablesUncached is the memo-miss path of BuildTables: disk cache, then
// the measurement campaign. Exactly one caller per content key runs it at a
// time (the flight group above).
func buildTablesUncached(key string, spec TableSpec, opt BuildOptions,
	stage func(s, p int) float64, dp func(p int) float64) (Tables, TableSource, error) {
	nStages := len(spec.Stages)
	// Re-check the memo now that this call holds the flight slot: a
	// previous leader may have stored the tables between our memo miss and
	// flight acquisition.
	if v, ok := tableMemo.Load(key); ok {
		return v.(Tables), SourceMemory, nil
	}
	var path string
	if opt.CacheDir != "" {
		path = cachePath(opt.CacheDir, key)
		if t, ok := readDiskCache(path, key, nStages, spec.P); ok {
			tableMemo.Store(key, t)
			return t, SourceDisk, nil
		}
	}

	// One job per (stage, procs) cell plus one per DP processor count,
	// indexed so results land in deterministic submission order.
	n := nStages*spec.P + spec.P
	results := sweep.MapNamed("cost-tables", opt.Workers, n, func(i int) (float64, error) {
		if i < nStages*spec.P {
			s, p := i/spec.P, i%spec.P+1
			return stage(s, p), nil
		}
		return dp(i - nStages*spec.P + 1), nil
	})

	t := Tables{Key: key, StageT: make([][]float64, nStages), DPT: make([]float64, spec.P+1)}
	for s := range t.StageT {
		t.StageT[s] = make([]float64, spec.P+1)
	}
	for i, r := range results {
		if r.Err != nil {
			if i < nStages*spec.P {
				return Tables{}, SourceComputed, fmt.Errorf("mapping: stage %s on %d procs: %w",
					spec.Stages[i/spec.P], i%spec.P+1, r.Err)
			}
			return Tables{}, SourceComputed, fmt.Errorf("mapping: data-parallel on %d procs: %w",
				i-nStages*spec.P+1, r.Err)
		}
		if i < nStages*spec.P {
			t.StageT[i/spec.P][i%spec.P+1] = r.Value
		} else {
			t.DPT[i-nStages*spec.P+1] = r.Value
		}
	}

	tableMemo.Store(key, t)
	if path != "" {
		writeDiskCache(path, t)
	}
	return t, SourceComputed, nil
}

// Model assembles a mapper Model from the tables plus the structural pieces
// that are not measured: the parallelism caps and the transfer-cost
// function.
func (t Tables) Model(spec TableSpec, p int, caps []int, xfer func(s, a, b int) float64) Model {
	return Model{
		P:          p,
		StageNames: spec.Stages,
		StageT:     t.StageT,
		DPT:        t.DPT,
		Caps:       caps,
		Xfer:       xfer,
	}
}

// ResetTableMemo clears the in-process cache. Tests use it to exercise the
// disk-cache path.
func ResetTableMemo() {
	tableMemo.Range(func(k, _ any) bool {
		tableMemo.Delete(k)
		return true
	})
}
