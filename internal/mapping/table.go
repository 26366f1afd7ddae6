package mapping

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"fxpar/internal/cas"
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
type TableSource = cas.Source

const (
	// SourceComputed: the tables were built by running simulations.
	SourceComputed = cas.SourceComputed
	// SourceMemory: in-process cache hit, no simulation ran.
	SourceMemory = cas.SourceMemory
	// SourceDisk: on-disk cache hit, no simulation ran.
	SourceDisk = cas.SourceDisk
)

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

// tables is the process-wide cost-table store: every build in the process
// shares its memory tier and its flight (a serving process fielding many
// simultaneous requests over one application runs one measurement campaign),
// and BuildOptions.CacheDir names its disk tier per build.
var tables = cas.New(cas.Codec[Tables]{
	Prefix: "fxtab-",
	Encode: func(_ string, t Tables) ([]byte, error) {
		data, err := json.Marshal(t)
		return append(data, '\n'), err
	},
	Decode: func(data []byte) (string, Tables, error) {
		var t Tables
		err := json.Unmarshal(data, &t)
		return t.Key, t, err
	},
})

// errShape rejects stored tables whose dimensions do not match their spec.
var errShape = errors.New("mapping: stored tables do not fit the spec")

// BuildTables returns the cost tables for spec from the process-wide store —
// in memory, then in opt.CacheDir — measuring them on a miss. A miss fans the
// nStages·P stage measurements and P data-parallel measurements out over a
// sweep worker pool — each job is one isolated simulation — and the
// assembled tables are stored in both tiers.
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
	shape := func(t Tables) error {
		if len(t.StageT) != nStages || len(t.DPT) != spec.P+1 {
			return errShape
		}
		for _, tab := range t.StageT {
			if len(tab) != spec.P+1 {
				return errShape
			}
		}
		return nil
	}
	return tables.GetOrCompute(opt.CacheDir, key, shape, func() (Tables, error) {
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
					return Tables{}, fmt.Errorf("mapping: stage %s on %d procs: %w",
						spec.Stages[i/spec.P], i%spec.P+1, r.Err)
				}
				return Tables{}, fmt.Errorf("mapping: data-parallel on %d procs: %w",
					i-nStages*spec.P+1, r.Err)
			}
			if i < nStages*spec.P {
				t.StageT[i/spec.P][i%spec.P+1] = r.Value
			} else {
				t.DPT[i-nStages*spec.P+1] = r.Value
			}
		}
		return t, nil
	})
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

// ResetTableMemo clears the in-process tier of the cost-table store. Tests
// use it to exercise the disk tier.
func ResetTableMemo() { tables.Forget() }

// TableStats snapshots the process-wide cost-table store's lookup counters.
func TableStats() cas.Stats { return tables.Stats() }
