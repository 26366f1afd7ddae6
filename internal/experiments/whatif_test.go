package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"fxpar/internal/machine"
)

// TestWhatIfCampaignDeterministic: the default campaign's virtual-time
// content must be identical across worker counts and engines, and equal to
// the committed golden — only the Host* throughput fields may differ.
func TestWhatIfCampaignDeterministic(t *testing.T) {
	zeroHost := func(rep *WhatIfBench) *WhatIfBench {
		rep.HostRecostsPerSecond, rep.HostSimsPerSecond, rep.HostSeconds = 0, 0, 0
		return rep
	}
	run := func(workers int, eng machine.Engine) *WhatIfBench {
		cfg := DefaultWhatIf()
		cfg.Workers, cfg.Engine = workers, eng
		rep, err := WhatIf(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return zeroHost(rep)
	}
	a := run(1, nil)
	b := run(4, machine.Coop(2))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("what-if campaign not deterministic across -j/engine:\n%+v\nvs\n%+v", a, b)
	}
	var golden WhatIfBench
	readGolden(t, "whatif.golden.json", &golden)
	checkGolden(t, zeroHost(&golden), a)
}

// TestWhatIfCampaignInvariants checks the report's semantic content: the
// determinism flag holds, the identity grid points reproduce the baseline,
// the cross-checks agree with full simulation, and the JSON round-trips.
func TestWhatIfCampaignInvariants(t *testing.T) {
	cfg := QuickWhatIf()
	rep, err := WhatIf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IdentityExact {
		t.Error("re-cost at recorded parameters does not reproduce the recorded makespan")
	}
	if rep.SkeletonOps == 0 || rep.SkeletonKey == "" || !strings.HasPrefix(rep.SkeletonKey, "fxskel-") {
		t.Errorf("skeleton identity missing: ops=%d key=%q", rep.SkeletonOps, rep.SkeletonKey)
	}
	if len(rep.Grid) != 3*len(cfg.Scales) {
		t.Fatalf("grid has %d points, want %d", len(rep.Grid), 3*len(cfg.Scales))
	}
	for _, g := range rep.Grid {
		if g.Scale == 1 && g.Makespan != rep.Baseline {
			t.Errorf("%s identity grid point %v != baseline %v", g.Param, g.Makespan, rep.Baseline)
		}
	}
	for _, c := range rep.Checks {
		if c.RelErr > 1e-9 {
			t.Errorf("%s x%g: re-cost %v vs sim %v (rel err %g)", c.Param, c.Scale, c.Recost, c.Sim, c.RelErr)
		}
	}
	if len(rep.Spans) == 0 || rep.Spans[0].Gains[len(rep.Spans[0].Gains)-1] <= 0 {
		t.Errorf("ranked spans empty or top gain non-positive: %+v", rep.Spans)
	}

	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back WhatIfBench
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, rep) {
		t.Error("report does not round-trip through JSON")
	}

	var buf bytes.Buffer
	rep.WriteText(&buf)
	for _, want := range []string{"ranked virtual span speedups", "re-cost grid", "cross-checks", "reproduces the makespan exactly"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, buf.String())
		}
	}
}
