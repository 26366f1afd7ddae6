package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fxpar/internal/mapping"
	"fxpar/internal/sweep"
)

// The campaign goldens under testdata/ hold the deterministic content of the
// chaos, what-if and replay reports: virtual times, counts and verdicts that
// are identical on every host, engine and -j. Regenerate one with the CLI
// that prints the same report, from the repo root:
//
//	go run ./cmd/fxbench -quick -chaossweep 12 -json internal/experiments/testdata/chaos.golden.json
//	go run ./cmd/fxbench -whatifsweep -json internal/experiments/testdata/whatif.golden.json
//	go run ./cmd/fxbench -replaysweep -json internal/experiments/testdata/replay.golden.json
//	go run ./cmd/fxbench -json internal/experiments/testdata/table1.golden.json
//
// The Host* throughput lines the CLI also writes are never compared.

// readGolden decodes testdata/name into v.
func readGolden(t *testing.T, name string, v any) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// flattenJSON records every leaf of a decoded JSON value under its path
// ("Outcomes[3].Makespan"). Numbers stay in their literal text, so 64-bit
// seeds and shortest-form floats compare exactly.
func flattenJSON(path string, v any, out map[string]string) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			flattenJSON(strings.TrimPrefix(path+"."+k, "."), e, out)
		}
	case []any:
		for i, e := range x {
			flattenJSON(fmt.Sprintf("%s[%d]", path, i), e, out)
		}
	default:
		out[path] = fmt.Sprint(x)
	}
}

// leafDiffs reports every JSON leaf at which got differs from want, one
// "path: want X, got Y" line each, sorted by path. Empty means equal.
func leafDiffs(t *testing.T, want, got any) []string {
	t.Helper()
	flat := func(v any) map[string]string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		var tree any
		if err := dec.Decode(&tree); err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		flattenJSON("", tree, out)
		return out
	}
	w, g := flat(want), flat(got)
	var diffs []string
	for path, wv := range w {
		if gv, ok := g[path]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: want %s, got nothing", path, wv))
		} else if gv != wv {
			diffs = append(diffs, fmt.Sprintf("%s: want %s, got %s", path, wv, gv))
		}
	}
	for path, gv := range g {
		if _, ok := w[path]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: want nothing, got %s", path, gv))
		}
	}
	sort.Strings(diffs)
	return diffs
}

// checkGolden fails the test with one line per leaf at which the report
// deviates from its decoded golden.
func checkGolden(t *testing.T, golden, report any) {
	t.Helper()
	if diffs := leafDiffs(t, golden, report); len(diffs) > 0 {
		t.Errorf("report deviates from its testdata golden at %d leaf(s):\n  %s",
			len(diffs), strings.Join(diffs, "\n  "))
	}
}

// TestTable1PaperGolden pins paper-size Table 1: every column of the four
// rows, and the bytes of the cost-table file each row's build files under
// CacheDir (one FNV-64a per file, named by its content key's hash).
func TestTable1PaperGolden(t *testing.T) {
	var golden struct {
		Procs, Sets int
		Quick       bool
		Rows        []Table1Row
	}
	readGolden(t, "table1.golden.json", &golden)
	cfg := DefaultTable1()
	cfg.CacheDir = t.TempDir()
	mapping.ResetTableMemo()
	report := golden
	report.Rows = Table1(cfg)
	checkGolden(t, golden, report)

	want := map[string]uint64{
		"fxtab-ec950aa4d27efd08.json": 0x7c9b92328e7cc74e, // FFT-Hist 256x256
		"fxtab-74319dea272281b3.json": 0x461be0eda27ac2dd, // FFT-Hist 512x512
		"fxtab-210a996ec209cb5b.json": 0x37bf1b5d5d0f0739, // Radar 512x40
		"fxtab-7775e4005f80013b.json": 0xf9a030f117303823, // Stereo 256x240
	}
	got := map[string]uint64{}
	files, err := filepath.Glob(filepath.Join(cfg.CacheDir, "fxtab-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		got[filepath.Base(f)] = h.Sum64()
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cost-table files:\n got %#v\nwant %#v", got, want)
	}
}

// TestSkeletonGoldensShareOneScenario: the what-if and replay goldens are
// recorded from one capture of the default scenario, so they must agree on
// its skeleton identity, baseline and every grid point the two grids share.
// Neither golden can move without the other.
func TestSkeletonGoldensShareOneScenario(t *testing.T) {
	var whatIf WhatIfBench
	readGolden(t, "whatif.golden.json", &whatIf)
	var replay ReplayBench
	readGolden(t, "replay.golden.json", &replay)
	w, r := whatIf.skeletonHead, replay.skeletonHead
	w.Name, r.Name = "", ""
	if w != r {
		t.Errorf("goldens describe different captures:\nwhat-if %+v\nreplay  %+v", w, r)
	}
	var shared []GridPoint
	for _, g := range replay.Grid {
		if g.Param != "netscale" {
			shared = append(shared, g)
		}
	}
	if len(shared) != 15 || !reflect.DeepEqual(whatIf.Grid, shared) {
		t.Errorf("grids disagree:\nwhat-if %v\nreplay  %v", whatIf.Grid, shared)
	}
}

// TestGoldensBite: each golden comparison must fail, naming the JSON path,
// when a single leaf of the report moves — one dropped outcome, one makespan
// digit, one flipped verdict.
func TestGoldensBite(t *testing.T) {
	var chaos sweep.ChaosReport
	readGolden(t, "chaos.golden.json", &chaos)
	var whatIf WhatIfBench
	readGolden(t, "whatif.golden.json", &whatIf)
	var replay ReplayBench
	readGolden(t, "replay.golden.json", &replay)

	for _, tc := range []struct {
		name     string
		want     any
		got      func() any // a copy of want with one leaf moved
		wantPath string
	}{
		{"chaos dropped outcome", chaos, func() any {
			got := chaos
			got.Outcomes = chaos.Outcomes[:len(chaos.Outcomes)-1]
			return got
		}, "Outcomes[11]."},
		{"what-if grid makespan digit", whatIf, func() any {
			got := whatIf
			got.Grid = append([]GridPoint(nil), whatIf.Grid...)
			got.Grid[0].Makespan = math.Nextafter(got.Grid[0].Makespan, 1)
			return got
		}, "Grid[0].Makespan: "},
		{"replay identity flipped", replay, func() any {
			got := replay
			got.IdentityExact = false
			return got
		}, "IdentityExact: want true, got false"},
	} {
		diffs := leafDiffs(t, tc.want, tc.got())
		if len(diffs) == 0 {
			t.Errorf("%s: perturbed report compares equal to the golden", tc.name)
		} else if !strings.HasPrefix(diffs[0], tc.wantPath) {
			t.Errorf("%s: first diff %q does not name %q", tc.name, diffs[0], tc.wantPath)
		}
	}
}
