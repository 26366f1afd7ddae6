package mapping

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fxpar/internal/sim"
)

func testSpec(p int) TableSpec {
	return TableSpec{
		App:    "synthetic",
		Params: "N=16",
		P:      p,
		Stages: []string{"s0", "s1"},
		Cost:   sim.Paragon(),
	}
}

// tablePath is where the cost-table store files key in dir.
func tablePath(dir, key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(dir, fmt.Sprintf("fxtab-%016x.json", h.Sum64()))
}

// countingFns returns stage/dp functions that count invocations.
func countingFns(calls *atomic.Int64) (func(s, p int) float64, func(p int) float64) {
	stage := func(s, p int) float64 {
		calls.Add(1)
		return float64(s+1) / float64(p)
	}
	dp := func(p int) float64 {
		calls.Add(1)
		return 3.0 / float64(p)
	}
	return stage, dp
}

func TestBuildTablesComputesAndMemoizes(t *testing.T) {
	ResetTableMemo()
	spec := testSpec(4)
	var calls atomic.Int64
	stage, dp := countingFns(&calls)

	tab, src, err := BuildTables(spec, BuildOptions{Workers: 4}, stage, dp)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceComputed {
		t.Errorf("first build source = %v, want computed", src)
	}
	if want := int64(2*4 + 4); calls.Load() != want {
		t.Errorf("%d measurement calls, want %d", calls.Load(), want)
	}
	if tab.StageT[1][2] != 1.0 || tab.DPT[3] != 1.0 {
		t.Errorf("table values wrong: StageT[1][2]=%g DPT[3]=%g", tab.StageT[1][2], tab.DPT[3])
	}

	// Second build: in-process memo hit, zero new simulations.
	tab2, src2, err := BuildTables(spec, BuildOptions{Workers: 4}, stage, dp)
	if err != nil {
		t.Fatal(err)
	}
	if src2 != SourceMemory {
		t.Errorf("second build source = %v, want memory", src2)
	}
	if calls.Load() != int64(12) {
		t.Errorf("memo hit still ran %d measurements", calls.Load()-12)
	}
	if tab2.StageT[0][1] != tab.StageT[0][1] {
		t.Error("memoized tables differ")
	}
}

func TestBuildTablesDiskCache(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(3)
	var calls atomic.Int64
	stage, dp := countingFns(&calls)

	ResetTableMemo()
	if _, src, err := BuildTables(spec, BuildOptions{CacheDir: dir}, stage, dp); err != nil || src != SourceComputed {
		t.Fatalf("cold build: src=%v err=%v", src, err)
	}
	first := calls.Load()
	if _, err := os.Stat(tablePath(dir, spec.Key())); err != nil {
		t.Errorf("tables not filed as fxtab-<fnv64a(key)>.json: %v", err)
	}

	// Fresh process simulated by clearing the in-process memo: the disk
	// cache must satisfy the build with zero simulations.
	ResetTableMemo()
	tab, src, err := BuildTables(spec, BuildOptions{CacheDir: dir}, stage, dp)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceDisk {
		t.Errorf("warm build source = %v, want disk", src)
	}
	if calls.Load() != first {
		t.Errorf("disk hit ran %d extra measurements", calls.Load()-first)
	}
	if tab.DPT[2] != 1.5 {
		t.Errorf("DPT[2] = %g after disk round-trip", tab.DPT[2])
	}

	// A different spec must not hit the same cache entry.
	other := spec
	other.Params = "N=32"
	ResetTableMemo()
	if _, src, err := BuildTables(other, BuildOptions{CacheDir: dir}, stage, dp); err != nil || src != SourceComputed {
		t.Errorf("different params: src=%v err=%v, want computed", src, err)
	}
}

// TestBuildTablesRejectsCorruptCacheFile: a cache file holding the spec's key
// but tables of the wrong shape fails the shape check — a miss that the
// rebuild repairs. (Every other corrupt file is a miss by the cas protocol.)
func TestBuildTablesRejectsCorruptCacheFile(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(2)
	var calls atomic.Int64
	stage, dp := countingFns(&calls)
	for _, bad := range []Tables{
		{Key: spec.Key(), StageT: [][]float64{{0, 1, 1}}, DPT: []float64{0, 1, 1}},
		{Key: spec.Key(), StageT: [][]float64{{0, 1, 1}, {0, 1}}, DPT: []float64{0, 1, 1}},
		{Key: spec.Key(), StageT: [][]float64{{0, 1, 1}, {0, 1, 1}}, DPT: []float64{0, 1}},
	} {
		data, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tablePath(dir, spec.Key()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ResetTableMemo()
		before := calls.Load()
		if _, src, err := BuildTables(spec, BuildOptions{CacheDir: dir}, stage, dp); err != nil || src != SourceComputed || calls.Load() == before {
			t.Errorf("misshapen cache %v: src=%v err=%v, want recompute", bad, src, err)
		}
		// The rebuild must have repaired the file.
		ResetTableMemo()
		if _, src, err := BuildTables(spec, BuildOptions{CacheDir: dir}, stage, dp); err != nil || src != SourceDisk {
			t.Errorf("after repair: src=%v err=%v, want disk hit", src, err)
		}
	}
}

func TestBuildTablesPropagatesJobPanic(t *testing.T) {
	ResetTableMemo()
	spec := testSpec(3)
	stage := func(s, p int) float64 {
		if s == 1 && p == 2 {
			panic("infeasible distribution")
		}
		return 1
	}
	dp := func(p int) float64 { return 1 }
	_, _, err := BuildTables(spec, BuildOptions{}, stage, dp)
	if err == nil {
		t.Fatal("panicking measurement did not fail the build")
	}
	if !strings.Contains(err.Error(), "s1") || !strings.Contains(err.Error(), "2 procs") {
		t.Errorf("error %q does not locate the failing cell", err)
	}
	// The failed build must not be cached.
	if _, _, ok := tables.Get("", spec.Key(), func(Tables) error { return nil }); ok {
		t.Error("failed build was memoized")
	}
}

func TestTableSpecKeyCoversCostModel(t *testing.T) {
	a := testSpec(4)
	b := a
	b.Cost.Alpha *= 2
	if a.Key() == b.Key() {
		t.Error("changing a cost constant did not change the key")
	}
	c := a
	c.P = 5
	if a.Key() == c.Key() {
		t.Error("changing P did not change the key")
	}
	d := a
	d.Stages = []string{"s0", "zz"}
	if a.Key() == d.Key() {
		t.Error("changing stage names did not change the key")
	}
}

func TestTablesModelAssembly(t *testing.T) {
	ResetTableMemo()
	spec := testSpec(4)
	var calls atomic.Int64
	stage, dp := countingFns(&calls)
	tab, _, err := BuildTables(spec, BuildOptions{}, stage, dp)
	if err != nil {
		t.Fatal(err)
	}
	m := tab.Model(spec, spec.P, []int{0, 2}, func(s, a, b int) float64 { return 0.001 })
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Optimize(m, 0); err != nil {
		t.Fatal(err)
	}
}

// TestBuildTablesSingleflight: N concurrent builds of one spec (a serving
// process's request handlers) measure each cell exactly once and all return
// identical tables.
func TestBuildTablesSingleflight(t *testing.T) {
	ResetTableMemo()
	spec := TableSpec{App: "flight-test-dedupe", Params: "unit", P: 4, Stages: []string{"a", "b"}}
	var cells atomic.Int64
	gate := make(chan struct{})
	stage := func(s, p int) float64 {
		cells.Add(1)
		<-gate // hold the leader's campaign open until all joiners queued
		return float64(s*10 + p)
	}
	dp := func(p int) float64 {
		cells.Add(1)
		<-gate
		return float64(100 + p)
	}

	const clients = 8
	var wg sync.WaitGroup
	results := make([]Tables, clients)
	sources := make([]TableSource, clients)
	launched := make(chan struct{}, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			launched <- struct{}{}
			tab, src, err := BuildTables(spec, BuildOptions{Workers: 2}, stage, dp)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			results[i], sources[i] = tab, src
		}(i)
	}
	for i := 0; i < clients; i++ {
		<-launched
	}
	close(gate)
	wg.Wait()

	// 2 stages x 4 procs + 4 DP cells, each measured exactly once.
	if n := cells.Load(); n != 12 {
		t.Errorf("measured %d cells, want 12 (duplicated campaign)", n)
	}
	computed := 0
	for i := range results {
		if sources[i] == SourceComputed {
			computed++
		}
		if results[i].Key != results[0].Key || results[i].DPT[4] != 104 || results[i].StageT[1][3] != 13 {
			t.Errorf("client %d tables = %+v", i, results[i])
		}
	}
	if computed != 1 {
		t.Errorf("%d clients report SourceComputed, want exactly 1", computed)
	}
}

// TestBuildTablesParallelEqualsSerial: worker count must not affect table
// contents (the determinism contract of the campaign driver).
func TestBuildTablesParallelEqualsSerial(t *testing.T) {
	spec := testSpec(6)
	stage := func(s, p int) float64 { return float64((s+1)*1000+p) * 1e-6 }
	dp := func(p int) float64 { return float64(p) * 1e-3 }
	ResetTableMemo()
	serial, _, err := BuildTables(spec, BuildOptions{Workers: 1}, stage, dp)
	if err != nil {
		t.Fatal(err)
	}
	ResetTableMemo()
	par, _, err := BuildTables(spec, BuildOptions{Workers: 8}, stage, dp)
	if err != nil {
		t.Fatal(err)
	}
	for s := range serial.StageT {
		for p := 1; p <= spec.P; p++ {
			if serial.StageT[s][p] != par.StageT[s][p] {
				t.Fatalf("StageT[%d][%d]: serial %g != parallel %g", s, p, serial.StageT[s][p], par.StageT[s][p])
			}
		}
	}
	for p := 1; p <= spec.P; p++ {
		if serial.DPT[p] != par.DPT[p] {
			t.Fatalf("DPT[%d]: serial %g != parallel %g", p, serial.DPT[p], par.DPT[p])
		}
	}
}

// FuzzTablesFile: whatever bytes sit at a spec's fxtab- path, BuildTables
// never panics and either hits with tables of the spec's key and shape,
// measuring nothing, or measures afresh.
func FuzzTablesFile(f *testing.F) {
	spec := testSpec(2)
	for _, tab := range []Tables{
		{Key: spec.Key(), StageT: [][]float64{{0, 1, 0.5}, {0, 2, 1}}, DPT: []float64{0, 3, 1.5}},
		{Key: spec.Key(), StageT: [][]float64{{0, 1}}, DPT: []float64{0, 3, 1.5}},
		{Key: "app=other", StageT: [][]float64{{0, 1, 0.5}, {0, 2, 1}}, DPT: []float64{0, 3, 1.5}},
	} {
		data, err := json.Marshal(tab)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("{not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(tablePath(dir, spec.Key()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ResetTableMemo()
		var calls atomic.Int64
		stage, dp := countingFns(&calls)
		tab, src, err := BuildTables(spec, BuildOptions{Workers: 1, CacheDir: dir}, stage, dp)
		if err != nil {
			t.Fatal(err)
		}
		switch src {
		case SourceDisk:
			if calls.Load() != 0 || tab.Key != spec.Key() || len(tab.StageT) != 2 || len(tab.StageT[1]) != 3 || len(tab.DPT) != 3 {
				t.Fatalf("disk hit with %d measurements: %+v", calls.Load(), tab)
			}
		case SourceComputed:
			if calls.Load() != 6 || tab.StageT[1][2] != 1 || tab.DPT[2] != 1.5 {
				t.Fatalf("recompute with %d measurements: %+v", calls.Load(), tab)
			}
		default:
			t.Fatalf("source %v", src)
		}
	})
}
