package skeleton_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"fxpar/internal/experiments"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
)

func storeKeyFor(sk *skeleton.Skeleton, chaos string) skeleton.StoreKey {
	return skeleton.StoreKey{
		App:     "ffthist",
		Params:  "N=32,Bins=16",
		Mapping: "m=1/s=4,2,2",
		P:       sk.P,
		Chaos:   chaos,
		Cost:    sk.Cost,
	}
}

// TestStoreRoundTrip covers the three sources: a miss resolved by capture, a
// memory hit in the same store, and a disk hit in a fresh store sharing the
// directory (the cross-process path).
func TestStoreRoundTrip(t *testing.T) {
	sk, _, _ := smallRun(t)
	dir := t.TempDir()
	st := skeleton.NewStore(dir)
	k := storeKeyFor(sk, "")

	if _, _, ok := st.Get(k); ok {
		t.Fatal("empty store reported a hit")
	}
	got, src, err := st.GetOrCapture(k, func() (*skeleton.Skeleton, error) { return sk, nil })
	if err != nil || src != skeleton.SourceCaptured || got != sk {
		t.Fatalf("GetOrCapture miss: got %v source %v err %v", got, src, err)
	}
	if got, src, ok := st.Get(k); !ok || src != skeleton.SourceMemory || got != sk {
		t.Fatalf("second lookup: ok %v source %v", ok, src)
	}

	// A fresh store over the same directory models a second -j worker or a
	// later process: it must hit on disk and serve a byte-identical skeleton.
	st2 := skeleton.NewStore(dir)
	got2, src, ok := st2.Get(k)
	if !ok || src != skeleton.SourceDisk {
		t.Fatalf("fresh store over shared dir: ok %v source %v", ok, src)
	}
	want, err := sk.Encode()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := got2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(want) {
		t.Fatal("disk round-trip altered the skeleton encoding")
	}

	stats := st.Stats()
	if stats.Captured != 1 || stats.Memory != 1 {
		t.Fatalf("stats = %+v, want 1 capture and 1 memory hit", stats)
	}
	if s2 := st2.Stats(); s2.Disk != 1 {
		t.Fatalf("fresh store stats = %+v, want 1 disk hit", s2)
	}
}

// TestStoreChaosIdentity pins the satellite guarantee: a skeleton captured
// under one chaos plan must never be served for another — a different seed or
// profile is a store miss, not a silent wrong-answer hit.
func TestStoreChaosIdentity(t *testing.T) {
	sk, _, _ := smallRun(t) // healthy capture: sk.Chaos == ""
	st := skeleton.NewStore(t.TempDir())

	if err := st.Put(storeKeyFor(sk, ""), sk); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for _, chaos := range []string{"42:flaky", "7:flaky", "42:lossy"} {
		if _, _, ok := st.Get(storeKeyFor(sk, chaos)); ok {
			t.Errorf("healthy skeleton served for chaos plan %q", chaos)
		}
	}

	// Mis-keyed Put: storing a healthy skeleton under a chaos key must fail
	// loudly (the belt-and-suspenders admissibility check), in memory and
	// before anything lands on disk.
	if err := st.Put(storeKeyFor(sk, "42:flaky"), sk); err == nil {
		t.Fatal("Put accepted a skeleton whose chaos stamp contradicts the key")
	}
	if _, _, ok := st.Get(storeKeyFor(sk, "42:flaky")); ok {
		t.Fatal("rejected Put still served on lookup")
	}

	// Same for a cost-model mismatch: key says one machine, skeleton another.
	k := storeKeyFor(sk, "")
	k.Cost.Alpha *= 2
	if err := st.Put(k, sk); err == nil {
		t.Fatal("Put accepted a skeleton whose recorded cost contradicts the key")
	}
}

// TestStoreDiskTamperIsMiss: a corrupted or swapped cache file must read as a
// miss, never as a wrong skeleton — and never as a panic.
func TestStoreDiskTamperIsMiss(t *testing.T) {
	sk, _, _ := smallRun(t)
	k := storeKeyFor(sk, "")
	tampers := []struct {
		name string
		edit func(data []byte) []byte
	}{
		{"flipped byte", func(data []byte) []byte {
			data[len(data)/2] ^= 0x01
			return data
		}},
		// No op kind is named "timeout": such a row is a decode error.
		{"timeout op", func(data []byte) []byte {
			return bytes.Replace(data, []byte(`"compute `), []byte(`"timeout `), 1)
		}},
	}
	for _, tc := range tampers {
		dir := t.TempDir()
		if err := skeleton.NewStore(dir).Put(k, sk); err != nil {
			t.Fatalf("Put: %v", err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) != 1 {
			t.Fatalf("cache dir: %v entries, err %v", len(ents), err)
		}
		path := filepath.Join(dir, ents[0].Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := tc.edit(bytes.Clone(data))
		if bytes.Equal(bad, data) {
			t.Fatalf("%s: tampering left the file unchanged", tc.name)
		}
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := skeleton.NewStore(dir).Get(k); ok {
			t.Errorf("%s: tampered cache file served as a hit", tc.name)
		}
	}
}

// TestStoreNonCanonicalIsRecaptured: a store file Encode did not write is a
// miss even when it is valid JSON with the right content, and GetOrCapture
// replaces it by one capture whose file has the canonical bytes again.
func TestStoreNonCanonicalIsRecaptured(t *testing.T) {
	sk, _, _ := smallRun(t)
	k := storeKeyFor(sk, "")
	edits := []struct {
		name string
		edit func(data []byte) []byte
	}{
		{"re-indented with tabs", func(data []byte) []byte {
			var b bytes.Buffer
			if err := json.Indent(&b, data, "", "\t"); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}},
		{"row edited", func(data []byte) []byte {
			return bytes.Replace(data, []byte(`"compute d=`), []byte(`"compute d=1`), 1)
		}},
		{"storeKey edited", func(data []byte) []byte {
			return bytes.Replace(data, []byte(`"storeKey": "app=ffthist`), []byte(`"storeKey": "app=ffthisT`), 1)
		}},
		// The same key and skeleton, spelled in bytes Encode never writes.
		{"storeKey escaped", func(data []byte) []byte {
			return bytes.Replace(data, []byte(`"storeKey": "app=`), []byte(`"storeKey": "\u0061pp=`), 1)
		}},
		{"skeleton's closing brace unindented", func(data []byte) []byte {
			return append(bytes.TrimSuffix(data, []byte("\n }\n}\n")), "\n}\n}\n"...)
		}},
	}
	for _, tc := range edits {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := skeleton.NewStore(dir).Put(k, sk); err != nil {
				t.Fatal(err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil || len(ents) != 1 {
				t.Fatalf("cache dir: %d entries, err %v", len(ents), err)
			}
			path := filepath.Join(dir, ents[0].Name())
			canon, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := tc.edit(bytes.Clone(canon))
			if bytes.Equal(bad, canon) {
				t.Fatal("the edit left the file unchanged")
			}
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := skeleton.NewStore(dir).Get(k); ok {
				t.Fatal("edited store file served as a hit")
			}
			st := skeleton.NewStore(dir)
			if _, src, err := st.GetOrCapture(k, func() (*skeleton.Skeleton, error) { return sk, nil }); err != nil || src != skeleton.SourceCaptured {
				t.Fatalf("GetOrCapture: source %v, err %v", src, err)
			}
			if n := st.Stats().Captured; n != 1 {
				t.Fatalf("%d captures, want 1", n)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, canon) {
				t.Fatalf("recapture did not rewrite the canonical bytes (err %v)", err)
			}
		})
	}
}

// TestQuickTable1StoreMatchesOracle: every file a quick Table 1 writes to its
// skeleton store has the bytes the encoding/json codec would write for its
// content.
func TestQuickTable1StoreMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	cfg := experiments.QuickTable1()
	cfg.Replay = &mapping.ReplayOptions{Store: skeleton.NewStore(dir)}
	experiments.Table1(cfg)
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("store dir: %d files, err %v", len(ents), err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if want, err := skeleton.OracleStoreFile(data); err != nil || !bytes.Equal(data, want) {
			t.Fatalf("%s differs from the oracle's bytes (err %v)", e.Name(), err)
		}
	}
}

// TestStoreNonFiniteOpIsMiss: a store file whose skeleton carries a NaN,
// infinite or negative duration or wire time — re-encoded so its content key
// is correct — must read as a miss, not replay into a non-finite makespan.
func TestStoreNonFiniteOpIsMiss(t *testing.T) {
	sk, _, _ := smallRun(t)
	k := storeKeyFor(sk, "")
	cases := []struct {
		name string
		kind machine.EventKind
		set  func(op *skeleton.Op)
	}{
		{"d=+Inf", machine.EvCompute, func(op *skeleton.Op) { op.Dur = math.Inf(1) }},
		{"d=NaN", machine.EvCompute, func(op *skeleton.Op) { op.Dur = math.NaN() }},
		{"d=-1", machine.EvCompute, func(op *skeleton.Op) { op.Dur = -1 }},
		{"w=-Inf", machine.EvSend, func(op *skeleton.Op) { op.Wire = math.Inf(-1) }},
		{"w=-1e-3", machine.EvSend, func(op *skeleton.Op) { op.Wire = -1e-3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := *sk
			bad.Procs = make([][]skeleton.Op, len(sk.Procs))
			set := false
			for p, ops := range sk.Procs {
				bad.Procs[p] = append([]skeleton.Op(nil), ops...)
				for i := range bad.Procs[p] {
					if !set && bad.Procs[p][i].Kind == tc.kind {
						tc.set(&bad.Procs[p][i])
						set = true
					}
				}
			}
			if !set {
				t.Fatalf("capture has no %v op", tc.kind)
			}
			data, err := bad.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := skeleton.Decode(data); err == nil {
				mk, rerr := got.Recost(skeleton.Params{})
				t.Fatalf("Decode accepted %s (Recost = %v, %v)", tc.name, mk, rerr)
			}
			dir := t.TempDir()
			if err := skeleton.NewStore(dir).Put(k, &bad); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if _, _, ok := skeleton.NewStore(dir).Get(k); ok {
				t.Fatalf("store file with %s served as a hit", tc.name)
			}
		})
	}
}

// TestStoreConcurrentGetOrCapture: concurrent misses on one key run one
// capture, every caller gets the skeleton, and the store settles to a memory
// hit.
func TestStoreConcurrentGetOrCapture(t *testing.T) {
	sk, _, _ := smallRun(t)
	st := skeleton.NewStore(t.TempDir())
	k := storeKeyFor(sk, "")

	const callers = 8
	var captures atomic.Int64
	gate := make(chan struct{})
	launched := make(chan struct{}, callers)
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			launched <- struct{}{}
			got, _, err := st.GetOrCapture(k, func() (*skeleton.Skeleton, error) {
				captures.Add(1)
				<-gate
				return sk, nil
			})
			if err != nil {
				errs <- err
				return
			}
			if got.Makespan != sk.Makespan || got.Chaos != sk.Chaos {
				errs <- fmt.Errorf("concurrent caller got a different skeleton")
			}
		}()
	}
	for i := 0; i < callers; i++ {
		<-launched
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := captures.Load(); n != 1 {
		t.Errorf("capture ran %d times across concurrent misses, want exactly 1", n)
	}
	if st.Stats().Captured != 1 {
		t.Errorf("stats report %d captures, want 1", st.Stats().Captured)
	}
	if _, src, ok := st.Get(k); !ok || src != skeleton.SourceMemory {
		t.Fatalf("store not settled after concurrent captures: ok %v source %v", ok, src)
	}
}

// TestRecostRejectsBadParams is the regression test for the Params
// validation seam: non-positive or non-finite machine parameters must come
// back as a typed *ParamError, never as a NaN or Inf makespan.
func TestRecostRejectsBadParams(t *testing.T) {
	sk, _, _ := smallRun(t)
	base := sk.Cost

	cases := []struct {
		name  string
		p     skeleton.Params
		field string
	}{
		{"zero flop rate", skeleton.Params{Cost: func() *sim.CostModel { c := base; c.FlopRate = 0; return &c }()}, "cost.FlopRate"},
		{"negative flop rate", skeleton.Params{Cost: func() *sim.CostModel { c := base; c.FlopRate = -1e6; return &c }()}, "cost.FlopRate"},
		{"NaN flop rate", skeleton.Params{Cost: func() *sim.CostModel { c := base; c.FlopRate = math.NaN(); return &c }()}, "cost.FlopRate"},
		{"Inf flop rate", skeleton.Params{Cost: func() *sim.CostModel { c := base; c.FlopRate = math.Inf(1); return &c }()}, "cost.FlopRate"},
		{"negative alpha", skeleton.Params{Cost: func() *sim.CostModel { c := base; c.Alpha = -1e-6; return &c }()}, "cost.Alpha"},
		{"negative beta", skeleton.Params{Cost: func() *sim.CostModel { c := base; c.Beta = -1e-9; return &c }()}, "cost.Beta"},
		{"NaN beta", skeleton.Params{Cost: func() *sim.CostModel { c := base; c.Beta = math.NaN(); return &c }()}, "cost.Beta"},
		{"negative net scale", skeleton.Params{NetScale: -2}, "netscale"},
		{"NaN net scale", skeleton.Params{NetScale: math.NaN()}, "netscale"},
		{"Inf net scale", skeleton.Params{NetScale: math.Inf(1)}, "netscale"},
		{"NaN speedup", skeleton.Params{SpanSpeedup: map[string]float64{sk.Labels[0]: math.NaN()}}, "speedup:" + sk.Labels[0]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk, err := sk.Recost(tc.p)
			if err == nil {
				t.Fatalf("Recost accepted bad params (makespan %v)", mk)
			}
			var pe *skeleton.ParamError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T (%v), want *skeleton.ParamError", err, err)
			}
			if pe.Field != tc.field {
				t.Errorf("ParamError.Field = %q, want %q", pe.Field, tc.field)
			}
			if pe.Error() == "" || pe.Reason == "" {
				t.Errorf("ParamError not descriptive: %+v", pe)
			}
			// The same rejection must be available pre-flight, without a
			// skeleton, for campaign grid validation.
			if tc.p.Validate() == nil {
				t.Error("Params.Validate accepted what Recost rejected")
			}
		})
	}

	// The zero value stays the identity replay (fxprof's self-check relies
	// on it): NetScale 0 means "unset", not an error.
	if mk, err := sk.Recost(skeleton.Params{}); err != nil || mk != sk.Makespan {
		t.Fatalf("zero-value Params: makespan %v err %v, want identity %v", mk, err, sk.Makespan)
	}
}
