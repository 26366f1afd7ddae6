package experiments

import (
	"path/filepath"
	"reflect"
	"testing"

	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/skeleton"
)

// TestReplayCampaign runs the quick campaign end to end and pins the
// guarantees the replay backend rests on: exact
// identity replays (healthy and chaotic), chaos key isolation, zero
// bitwise cross-check mismatches, and a full grid.
func TestReplayCampaign(t *testing.T) {
	cfg := QuickReplay()
	cfg.CheckEvery = 1 // cross-check EVERY grid job in the test
	rep, err := Replay(cfg)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rep.IdentityExact {
		t.Error("healthy identity replay not exact")
	}
	if !rep.ChaosIdentityExact {
		t.Error("chaotic identity replay not exact")
	}
	if !rep.ChaosDistinctKey {
		t.Error("chaotic capture shares the healthy store key")
	}
	if want := len(replayParams) * len(cfg.Scales); len(rep.Grid) != want {
		t.Errorf("grid has %d points, want %d", len(rep.Grid), want)
	}
	if len(rep.Checks) != len(rep.Grid) {
		t.Errorf("checked %d of %d grid jobs, want all", len(rep.Checks), len(rep.Grid))
	}
	if rep.Mismatches != 0 {
		for _, c := range rep.Checks {
			if !c.Exact {
				t.Errorf("cross-check mismatch: %s x%g replay %v sim %v", c.Param, c.Scale, c.Recost, c.Sim)
			}
		}
	}
	if len(rep.Search) != len(cfg.SearchScales) {
		t.Errorf("search has %d rows, want %d", len(rep.Search), len(cfg.SearchScales))
	}
	for _, s := range rep.Search {
		if s.Best == "" || s.Latency <= 0 {
			t.Errorf("search row %+v incomplete", s)
		}
	}
	if rep.StoreCaptures < 2 {
		t.Errorf("store captured %d skeletons, want >= 2 (healthy + chaotic)", rep.StoreCaptures)
	}
}

// TestReplayCampaignDeterministic: the deterministic report fields of the
// default campaign are a pure function of the config — identical across
// engines and worker counts, and equal to the committed golden. (Store
// counters depend on the process-global table memo, so they are compared
// only for the first run, which starts from a cleared memo.)
func TestReplayCampaignDeterministic(t *testing.T) {
	zeroHost := func(rep *ReplayBench) *ReplayBench {
		rep.HostReplaysPerSecond, rep.HostSimsPerSecond, rep.HostSpeedup, rep.HostSeconds = 0, 0, 0, 0
		return rep
	}
	mapping.ResetTableMemo()
	cfg := DefaultReplay()
	cfg.Workers = 1
	a, err := Replay(cfg)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	var golden ReplayBench
	readGolden(t, "replay.golden.json", &golden)
	checkGolden(t, zeroHost(&golden), zeroHost(a))
	coop, err := machine.EngineByName("coop")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers, cfg.Engine = 4, coop
	b, err := Replay(cfg)
	if err != nil {
		t.Fatalf("Replay (coop, -j4): %v", err)
	}
	if a.Baseline != b.Baseline || a.SkeletonKey != b.SkeletonKey {
		t.Errorf("capture not deterministic: %v/%s vs %v/%s", a.Baseline, a.SkeletonKey, b.Baseline, b.SkeletonKey)
	}
	if a.ChaosBaseline != b.ChaosBaseline {
		t.Errorf("chaotic capture not deterministic: %v vs %v", a.ChaosBaseline, b.ChaosBaseline)
	}
	if !reflect.DeepEqual(a.Grid, b.Grid) {
		t.Error("replay grid differs across engine/worker settings")
	}
	if !reflect.DeepEqual(a.Checks, b.Checks) {
		t.Error("cross-checks differ across engine/worker settings")
	}
	if !reflect.DeepEqual(a.Search, b.Search) {
		t.Error("mapping search differs across engine/worker settings")
	}
}

// TestReplayStoreOnDisk: a campaign with StoreDir set persists its captures
// so a second campaign (fresh store over the same directory) replays them
// from disk and captures nothing new.
func TestReplayStoreOnDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "skelcache")
	cfg := QuickReplay()
	cfg.StoreDir = dir
	cfg.SearchScales = nil // keep this test to the sweep itself
	cold, err := Replay(cfg)
	if err != nil {
		t.Fatalf("cold campaign: %v", err)
	}
	if cold.StoreCaptures == 0 {
		t.Fatal("cold campaign captured nothing")
	}
	warm, err := Replay(cfg)
	if err != nil {
		t.Fatalf("warm campaign: %v", err)
	}
	if warm.StoreCaptures != 0 {
		t.Errorf("warm campaign re-captured %d skeletons, want 0", warm.StoreCaptures)
	}
	if warm.StoreDiskHits == 0 {
		t.Error("warm campaign never hit the on-disk store")
	}
	if !reflect.DeepEqual(cold.Grid, warm.Grid) {
		t.Error("disk-replayed grid differs from the captured one")
	}
}

// TestFig6ReplayMatchesLive: the whole-run replay path of Figure 6 produces
// byte-identical points to the live simulation sweep, cold and warm.
func TestFig6ReplayMatchesLive(t *testing.T) {
	cfg := QuickFig6()
	cfg.ProcCounts = []int{1, 2, 4, 8}
	live := Fig6(cfg)

	r := &mapping.ReplayOptions{Store: skeleton.NewStore("")}
	cfg.Replay = r
	cold := Fig6(cfg) // populates the store (captures are the live runs)
	warm := Fig6(cfg) // answered entirely by analytic replay
	if !reflect.DeepEqual(live, cold) {
		t.Errorf("cold replay sweep differs from live:\nlive %+v\ncold %+v", live, cold)
	}
	if !reflect.DeepEqual(live, warm) {
		t.Errorf("warm replay sweep differs from live:\nlive %+v\nwarm %+v", live, warm)
	}
}
