package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"fxpar/internal/fault"
	"fxpar/internal/sweep"
)

// TestChaosCampaignNonLethalAllSurvive: under a non-lethal profile every
// seed must complete with output identical to the healthy run — the
// reliable-transport invariant, end to end through the campaign driver.
func TestChaosCampaignNonLethalAllSurvive(t *testing.T) {
	cfg := QuickChaos()
	prof, err := fault.ProfileByName("flaky")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Prof = prof
	rep := Chaos(cfg)
	if rep.Survived != rep.Seeds {
		for _, o := range rep.Outcomes {
			if o.Error != "" {
				t.Errorf("seed %d: %s", o.Seed, o.Error)
			}
		}
		t.Fatalf("non-lethal chaos killed runs: survived %d/%d", rep.Survived, rep.Seeds)
	}
	if rep.MinMakespan < rep.Baseline {
		t.Errorf("chaos sped a run up: min %g < baseline %g", rep.MinMakespan, rep.Baseline)
	}
}

// TestChaosCampaignLethalTerminates: a lethal profile yields a mix of
// typed-error failures and verified survivors — and the report is
// byte-identical across worker counts (determinism across -j) and equal to
// the committed golden, failure strings included: death times are virtual.
func TestChaosCampaignLethalTerminates(t *testing.T) {
	cfg := QuickChaos() // havoc: every fault class including kills
	cfg.Seeds = 12
	cfg.Workers = 1
	first := Chaos(cfg)
	var golden sweep.ChaosReport
	readGolden(t, "chaos.golden.json", &golden)
	checkGolden(t, golden, first)
	want, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	got, err := json.Marshal(Chaos(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("chaos report differs between -j levels:\n%s\nvs\n%s", got, want)
	}
	var rep struct {
		Survived, Failed int
		Outcomes         []struct{ Error string }
	}
	if err := json.Unmarshal(want, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Failed > 0 {
		found := false
		for _, o := range rep.Outcomes {
			if strings.Contains(o.Error, "died at virtual time") {
				found = true
			}
		}
		if !found {
			t.Errorf("failures carry no typed death diagnostics: %s", want)
		}
	}
}
