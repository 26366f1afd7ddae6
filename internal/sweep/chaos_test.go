package sweep

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"fxpar/internal/fault"
)

// chaosScenario is a deterministic stand-in for a simulation: it "survives"
// unless the plan kills processor 0..n-1, and its makespan stretches with
// the plan's slowdown of processor 0 — a pure function of the plan, like a
// real run.
func chaosScenario(n int, baseline float64) func(*fault.Plan) (float64, error) {
	return func(pl *fault.Plan) (float64, error) {
		dead := 0
		for i := 0; i < n; i++ {
			if _, ok := pl.DeathTime(i); ok {
				dead++
			}
		}
		if dead > 0 {
			return 0, fmt.Errorf("scenario: %d processors dead", dead)
		}
		return baseline * pl.SlowFactor(0), nil
	}
}

// TestChaosCampaignDeterministicAcrossWorkers: the report is a pure function
// of (scenario, profile, base, n) — byte-identical for every -j level.
func TestChaosCampaignDeterministicAcrossWorkers(t *testing.T) {
	prof, err := fault.ProfileByName("havoc")
	if err != nil {
		t.Fatal(err)
	}
	run := chaosScenario(64, 1.0)
	want, errJS := json.Marshal(ChaosCampaign("chaos-test", 1, prof, 7, 32, 1.0, run))
	if errJS != nil {
		t.Fatal(errJS)
	}
	for _, workers := range []int{2, 8} {
		got, err := json.Marshal(ChaosCampaign("chaos-test", workers, prof, 7, 32, 1.0, run))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("workers=%d report differs from workers=1:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestChaosCampaignStats pins the aggregation: survival counts, min/mean/max
// makespans and degradation percentages over the survivors only.
func TestChaosCampaignStats(t *testing.T) {
	prof, _ := fault.ProfileByName("havoc")
	rep := ChaosCampaign("chaos-test", 4, prof, 7, 32, 1.0, chaosScenario(64, 1.0))
	if rep.Survived+rep.Failed != rep.Seeds || rep.Seeds != 32 {
		t.Fatalf("survived %d + failed %d != seeds %d", rep.Survived, rep.Failed, rep.Seeds)
	}
	if rep.Failed == 0 {
		t.Error("havoc at 64 procs across 32 seeds killed nobody — kill path untested")
	}
	if rep.Survived == 0 {
		t.Fatal("no survivors — stats path untested")
	}
	if rep.MinMakespan < rep.Baseline || rep.MinMakespan > rep.MeanMakespan || rep.MeanMakespan > rep.MaxMakespan {
		t.Errorf("makespan ordering violated: min %g mean %g max %g (baseline %g)",
			rep.MinMakespan, rep.MeanMakespan, rep.MaxMakespan, rep.Baseline)
	}
	wantMax := (rep.MaxMakespan - rep.Baseline) / rep.Baseline * 100
	if rep.MaxDegradationPct != wantMax {
		t.Errorf("MaxDegradationPct = %g, want %g", rep.MaxDegradationPct, wantMax)
	}
	survived, failed := 0, 0
	for _, o := range rep.Outcomes {
		if o.Error != "" {
			failed++
			if o.Makespan != 0 {
				t.Errorf("failed seed %d has makespan %g", o.Seed, o.Makespan)
			}
		} else {
			survived++
		}
	}
	if survived != rep.Survived || failed != rep.Failed {
		t.Errorf("outcome tallies %d/%d disagree with report %d/%d", survived, failed, rep.Survived, rep.Failed)
	}
}

// TestChaosCampaignCapturesPanics: a panicking scenario (how a processor
// death surfaces from machine.Run) fails its own seed instead of the
// campaign.
func TestChaosCampaignCapturesPanics(t *testing.T) {
	prof, _ := fault.ProfileByName("none")
	rep := ChaosCampaign("chaos-test", 2, prof, 1, 3, 1.0, func(pl *fault.Plan) (float64, error) {
		panic(fmt.Sprintf("boom seed %d", pl.Seed))
	})
	if rep.Failed != 3 || rep.Survived != 0 {
		t.Fatalf("failed/survived = %d/%d, want 3/0", rep.Failed, rep.Survived)
	}
	for _, o := range rep.Outcomes {
		if !strings.Contains(o.Error, "boom seed") {
			t.Errorf("seed %d error %q does not carry the panic", o.Seed, o.Error)
		}
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	if !strings.Contains(sb.String(), "survived: 0/3") {
		t.Errorf("WriteText missing survival line:\n%s", sb.String())
	}
}
