package serve

import (
	"testing"

	"fxpar/internal/sim"
)

// TestResolveAppAllocs guards the per-request cost of resolveApp: it runs on
// every /optimize and /measure request, dedupe hits included, so it must
// build the content key and nothing else.
func TestResolveAppAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cost := sim.Paragon()
	for app, limit := range map[string]float64{"ffthist": 17, "radar": 22, "stereo": 17} {
		got := testing.AllocsPerRun(100, func() {
			if _, err := resolveApp(app, 16, 6, true, cost, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("resolveApp(%s): %v allocations", app, got)
		if got > limit {
			t.Errorf("resolveApp(%s): %v allocations per call, want <= %v", app, got, limit)
		}
	}
}
