package mapping_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/apps/radar"
	"fxpar/internal/apps/stereo"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
)

// The two cost models of the pinned keys, as %+v renders them.
const (
	paragonCost     = "{FlopRate:1e+07 Alpha:0.00012 Beta:3.3333333333333334e-08 SendOverhead:4e-05 MemByte:5e-09 BarrierAlpha:8e-05 IORate:5e+06 PerHop:0}"
	workstationCost = "{FlopRate:1e+09 Alpha:5e-06 Beta:1e-09 SendOverhead:1e-06 MemByte:2.5e-10 BarrierAlpha:3e-06 IORate:1e+08 PerHop:0}"
)

// TestContentKeysPinned pins, byte for byte, the content keys the sensor
// programs' cost-table builds are filed under: the TableSpec key (a serve job
// id, a dedupe key and the fxtab- file name) with and without a replay base,
// and the StoreKey of every stage and data-parallel cell MeasuredModel leaves
// in a skeleton store (the fxskel- file names). A refactor of the measurers
// that moves any of these strings orphans every cache on disk.
func TestContentKeysPinned(t *testing.T) {
	const maxP = 2
	cost := sim.Paragon()
	fc := ffthist.Config{N: 32, Sets: 6, Bins: 64}
	rc := radar.Config{Gates: 64, Rows: 8, Sets: 6, Scale: 1.0 / 64, Threshold: 0.05}
	sc := stereo.Config{W: 64, H: 24, Disparities: 8, Window: 2, Sets: 6}
	type modelFn func(opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error)
	apps := []struct {
		name, params, stages string
		nStages              int
		firstFile            string // file of the (s=0, P=2) cell captured at Paragon
		spec                 func(opt mapping.BuildOptions) mapping.TableSpec
		model                modelFn
	}{
		{"ffthist", "N=32,Bins=64", "[cffts rffts hist]", 3, "fxskel-1d8e50f1409900e8.json",
			func(opt mapping.BuildOptions) mapping.TableSpec { return ffthist.Spec(cost, fc, maxP, opt) },
			func(opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
				return ffthist.MeasuredModel(cost, fc, maxP, opt)
			}},
		{"radar", "Gates=64,Rows=8,Scale=0.015625,Thr=0.05", "[input fft scale threshold]", 4, "fxskel-6b3f9eae17ec8f0a.json",
			func(opt mapping.BuildOptions) mapping.TableSpec { return radar.Spec(cost, rc, maxP, opt) },
			func(opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
				return radar.MeasuredModel(cost, rc, maxP, opt)
			}},
		{"stereo", "W=64,H=24,D=8,Win=2", "[diff error depth]", 3, "fxskel-c45569be634d7696.json",
			func(opt mapping.BuildOptions) mapping.TableSpec { return stereo.Spec(cost, sc, maxP, opt) },
			func(opt mapping.BuildOptions) (mapping.Model, mapping.TableSource, error) {
				return stereo.MeasuredModel(cost, sc, maxP, opt)
			}},
	}
	for _, a := range apps {
		for _, withBase := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/base=%v", a.name, withBase), func(t *testing.T) {
				dir := t.TempDir()
				replay := &mapping.ReplayOptions{Store: skeleton.NewStore(dir)}
				suffix, cellCost := "", paragonCost
				if withBase {
					replay.Base = sim.Workstation()
					suffix, cellCost = "|replay-base="+workstationCost, workstationCost
				}
				opt := mapping.BuildOptions{Workers: 1, Replay: replay}

				wantSpec := fmt.Sprintf("app=%s|params=%s%s|P=2|stages=%s|cost=%s", a.name, a.params, suffix, a.stages, paragonCost)
				if got := a.spec(opt).Key(); got != wantSpec {
					t.Errorf("spec key\n got %s\nwant %s", got, wantSpec)
				}

				mapping.ResetTableMemo()
				if _, _, err := a.model(opt); err != nil {
					t.Fatal(err)
				}
				var want []string
				for p := 1; p <= maxP; p++ {
					for s := 0; s < a.nStages; s++ {
						want = append(want, fmt.Sprintf("app=%s.stage|params=%s,s=%d|mapping=isolated|P=%d|chaos=|cost=%s", a.name, a.params, s, p, cellCost))
					}
					want = append(want, fmt.Sprintf("app=%s.dp|params=%s|mapping=dp|P=%d|chaos=|cost=%s", a.name, a.params, p, cellCost))
				}
				sort.Strings(want)
				files, err := filepath.Glob(filepath.Join(dir, "fxskel-*.json"))
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, f := range files {
					data, err := os.ReadFile(f)
					if err != nil {
						t.Fatal(err)
					}
					var env struct {
						StoreKey string `json:"storeKey"`
					}
					if err := json.Unmarshal(data, &env); err != nil {
						t.Fatalf("%s: %v", f, err)
					}
					got = append(got, env.StoreKey)
				}
				sort.Strings(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("store keys\n got %q\nwant %q", got, want)
				}
				if !withBase {
					if _, err := os.Stat(filepath.Join(dir, a.firstFile)); err != nil {
						t.Errorf("cell (s=0, P=2) is not filed as %s: %v", a.firstFile, err)
					}
				}
			})
		}
	}
}

// TestParentCacheFilesHit pins the disk formats across commits: the fxtab-
// and fxskel- files in testdata/cache were written by an earlier commit for
// quick FFT-Hist at maxP 4. Both must be disk hits that measure nothing, and
// filing their values again must write the same names and bytes — so cache
// directories written before a change to the store cost zero misses after it.
func TestParentCacheFilesHit(t *testing.T) {
	cost := sim.Paragon()
	spec := ffthist.Spec(cost, ffthist.Config{N: 32, Sets: 1, Bins: 64}, 4, mapping.BuildOptions{})
	cell := skeleton.StoreKey{App: "ffthist.stage", Params: "N=32,Bins=64,s=0", Mapping: "isolated", P: 2, Cost: cost}
	names := []string{"fxtab-68b3e57f74e4b4b0.json", "fxskel-1d8e50f1409900e8.json"}
	dir := t.TempDir()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join("testdata", "cache", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	mapping.ResetTableMemo()
	tab, src, err := mapping.BuildTables(spec, mapping.BuildOptions{CacheDir: dir},
		func(s, p int) float64 { t.Errorf("measured stage %d on %d procs", s, p); return 0 },
		func(p int) float64 { t.Errorf("measured data-parallel on %d procs", p); return 0 })
	if err != nil || src != mapping.SourceDisk {
		t.Fatalf("tables: source %v, err %v; want a disk hit", src, err)
	}
	store := skeleton.NewStore(dir)
	sk, ssrc, ok := store.Get(cell)
	if !ok || ssrc != skeleton.SourceDisk || store.Stats() != (skeleton.StoreStats{Disk: 1}) {
		t.Fatalf("skeleton: ok %v, source %v, stats %+v; want one disk hit", ok, ssrc, store.Stats())
	}

	out := t.TempDir()
	mapping.ResetTableMemo()
	if _, src, err := mapping.BuildTables(spec, mapping.BuildOptions{CacheDir: out},
		func(s, p int) float64 { return tab.StageT[s][p] },
		func(p int) float64 { return tab.DPT[p] }); err != nil || src != mapping.SourceComputed {
		t.Fatalf("re-filing tables: source %v, err %v", src, err)
	}
	if err := skeleton.NewStore(out).Put(cell, sk); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatalf("re-filed value is not named %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: re-filed bytes differ\n got %s\nwant %s", name, got, want)
		}
	}
}
