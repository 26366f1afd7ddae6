package skeleton

// The skeleton store promotes captured skeletons from one-off profiler
// artifacts into a first-class replay backend: a content-addressed cache —
// in-process tier plus optional on-disk directory (internal/cas) — keyed on
// everything that determines a recorded run's DAG: the application, its
// parameters, the mapping, the machine size, the chaos plan identity, and
// the recorded cost model. Campaign jobs that vary only machine parameters
// (alpha, beta, flop rate, net scale) hit the store and re-cost the stored
// skeleton analytically instead of re-simulating; a miss falls back to one
// live traced run, which populates the store for every job after it.
//
// The chaos plan label is part of the key on purpose: a skeleton captured
// under one fault seed/profile bakes that plan's delays, retries and drops
// into its op stream, so replaying it for a different plan would be a
// silent wrong answer, not an approximation. Different chaos identity ==
// store miss, enforced both by the key string and by a belt-and-suspenders
// check against the stored skeleton's own Chaos stamp on every hit.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"fxpar/internal/cas"
	"fxpar/internal/sim"
)

// StoreKey identifies one captured run by content. Two equal keys describe
// byte-identical skeletons (capture is deterministic across engines, worker
// counts and hosts), so skeletons are shareable across campaigns, processes
// and machines.
type StoreKey struct {
	// App names the traced program ("ffthist", "ffthist.stage", "airshed", ...).
	App string
	// Params is a canonical rendering of the application parameters that
	// shape the DAG (data sizes, kernel constants, stage index).
	Params string
	// Mapping is the mapping's canonical string (module/stage split).
	Mapping string
	// P is the machine size the run executed on.
	P int
	// Chaos is the fault plan identity ("seed:profile"; "" for a healthy
	// run). A skeleton captured under one plan is never valid for another:
	// the injected delays, duplicates and retries are part of the DAG.
	Chaos string
	// Cost is the cost model the run was recorded under. Re-costing at
	// exactly this model reproduces the recorded run bitwise; other models
	// are analytic perturbations.
	Cost sim.CostModel
}

// Key renders the canonical content key. CostModel is a flat struct of
// float64 fields, so %+v yields a stable field-name=value rendering.
func (k StoreKey) Key() string {
	return fmt.Sprintf("app=%s|params=%s|mapping=%s|P=%d|chaos=%s|cost=%+v",
		k.App, k.Params, k.Mapping, k.P, k.Chaos, k.Cost)
}

// Source says where a store lookup found (or produced) a skeleton.
type Source = cas.Source

const (
	// SourceCaptured: the skeleton was captured by a live traced run.
	SourceCaptured = cas.SourceComputed
	// SourceMemory: in-process hit, no simulation ran.
	SourceMemory = cas.SourceMemory
	// SourceDisk: on-disk hit, no simulation ran.
	SourceDisk = cas.SourceDisk
)

// StoreStats counts lookups by outcome; a campaign report can cite them to
// show how much simulation the store displaced.
type StoreStats struct {
	Memory   int64 // in-process hits
	Disk     int64 // on-disk hits
	Captured int64 // misses resolved by a live traced run
}

// Store is a content-addressed skeleton cache (internal/cas): an in-process
// tier owned by this Store plus an optional on-disk directory shared with
// concurrent processes. Every skeleton it serves or stores is admissible for
// its key. Safe for concurrent use.
type Store struct {
	dir  string
	vals *cas.Store[*Skeleton]
}

// NewStore returns a store. dir is the on-disk cache directory; "" keeps
// the store purely in-process.
func NewStore(dir string) *Store { return &Store{dir: dir, vals: cas.New(storeCodec)} }

// Dir returns the on-disk cache directory ("" when in-process only).
func (st *Store) Dir() string {
	if st == nil {
		return ""
	}
	return st.dir
}

// Stats snapshots the lookup counters.
func (st *Store) Stats() StoreStats {
	s := st.vals.Stats()
	return StoreStats{Memory: s.Memory, Disk: s.Disk, Captured: s.Computed}
}

// storeCodec files a skeleton inside an envelope that carries the store key
// for collision/staleness detection: the bytes encoding/json's indenter
// writes for {"storeKey": key, "skeleton": <the canonical encoding>}.
// Decoding accepts only those bytes and verifies the skeleton's own content
// key (Decode).
var storeCodec = cas.Codec[*Skeleton]{
	Prefix: "fxskel-",
	Encode: func(key string, sk *Skeleton) ([]byte, error) {
		own, err := sk.Key()
		if err != nil {
			return nil, err
		}
		k, _ := json.Marshal(key) // a string always marshals
		data := append(append([]byte("{\n \"storeKey\": "), k...), ",\n \"skeleton\": "...)
		data, err = sk.appendFile(data, own, " ")
		return append(data, "}\n"...), err
	},
	Decode: func(data []byte) (string, *Skeleton, error) {
		rest, ok := bytes.CutPrefix(data, []byte("{\n \"storeKey\": "))
		k, rest, _ := bytes.Cut(rest, []byte(",\n \"skeleton\": "))
		inner, ok2 := bytes.CutSuffix(rest, []byte("}\n"))
		var key string
		// Every line of the nested skeleton but its first is indented once.
		if !ok || !ok2 || json.Unmarshal(k, &key) != nil ||
			bytes.Count(inner, []byte("\n")) != bytes.Count(inner, []byte("\n "))+1 {
			return "", nil, fmt.Errorf("skeleton: malformed store file")
		}
		if canon, _ := json.Marshal(key); !bytes.Equal(canon, k) { // a string always marshals
			return "", nil, fmt.Errorf("skeleton: store key not in canonical form")
		}
		sk, err := Decode(bytes.ReplaceAll(inner, []byte("\n "), []byte("\n")))
		return key, sk, err
	},
}

// admissible verifies a skeleton against the key it is stored or served
// under. The Chaos and Cost cross-checks are deliberately redundant with
// the key string: they turn a mis-keyed Put (a caller bug) into a loud
// failure instead of a silent wrong-answer replay.
func admissible(k *StoreKey, sk *Skeleton) error {
	if sk.Chaos != k.Chaos {
		return fmt.Errorf("skeleton: store key says chaos %q but skeleton was captured under %q", k.Chaos, sk.Chaos)
	}
	if sk.Cost != k.Cost {
		return fmt.Errorf("skeleton: store key cost model differs from the skeleton's recorded one")
	}
	return nil
}

// Get looks the key up in memory, then on disk. Any disk-side failure —
// file absent, malformed JSON, envelope key mismatch, content-key mismatch,
// chaos/cost stamp mismatch — is a miss.
func (st *Store) Get(k StoreKey) (*Skeleton, Source, bool) {
	return st.vals.Get(st.dir, k.Key(), func(sk *Skeleton) error { return admissible(&k, sk) })
}

// Put stores a captured skeleton under k, in memory always and on disk
// best-effort (a disk write failure never fails the caller — the skeleton
// is still served from memory). A skeleton whose chaos or cost stamp
// contradicts the key is rejected.
func (st *Store) Put(k StoreKey, sk *Skeleton) error {
	return st.vals.Put(st.dir, k.Key(), sk, func(sk *Skeleton) error { return admissible(&k, sk) })
}

// GetOrCapture returns the stored skeleton for k, or runs capture — one
// live traced simulation — on a miss and stores its result. Concurrent
// misses on the same key are deduped: exactly one caller captures (the runs
// are deterministic, so this changes no result, only the work); the others
// wait for its skeleton and report SourceMemory.
func (st *Store) GetOrCapture(k StoreKey, capture func() (*Skeleton, error)) (*Skeleton, Source, error) {
	return st.vals.GetOrCompute(st.dir, k.Key(), func(sk *Skeleton) error { return admissible(&k, sk) }, capture)
}
