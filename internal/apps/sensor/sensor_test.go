package sensor

import "testing"

// TestByNameSizes pins the workload sizes ByName is the only place to hold:
// Table 1's paper sizes, the quick sizes, and the leading-extent override.
func TestByNameSizes(t *testing.T) {
	for _, tc := range []struct {
		app      string
		quick    bool
		n        int
		size     string
		rows     int
		wantPars string
	}{
		{"ffthist", false, 0, "256x256", 256, "N=256,Bins=64,Sets=8"},
		{"ffthist", true, 0, "32x32", 32, "N=32,Bins=64,Sets=8"},
		{"ffthist", true, 64, "64x64", 64, "N=64,Bins=64,Sets=8"},
		{"radar", false, 0, "512x40", 40, "Gates=512,Rows=40,Scale=0.001953125,Thr=0.05,Sets=8"},
		{"radar", true, 0, "64x8", 8, "Gates=64,Rows=8,Scale=0.015625,Thr=0.05,Sets=8"},
		{"radar", false, 64, "64x40", 40, "Gates=64,Rows=40,Scale=0.001953125,Thr=0.05,Sets=8"},
		{"stereo", false, 0, "256x240", 240, "W=256,H=240,D=16,Win=2,Sets=8"},
		{"stereo", true, 0, "64x24", 24, "W=64,H=24,D=8,Win=2,Sets=8"},
		{"stereo", false, 64, "64x240", 240, "W=64,H=240,D=16,Win=2,Sets=8"},
	} {
		a, err := ByName(tc.app, tc.quick, 8, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name != tc.app || a.Size != tc.size || a.Rows != tc.rows || a.Params != tc.wantPars {
			t.Errorf("ByName(%s, quick=%v, n=%d) = %s %s rows %d %q", tc.app, tc.quick, tc.n, a.Name, a.Size, a.Rows, a.Params)
		}
	}
	if _, err := ByName("sonar", false, 8, 0); err == nil {
		t.Error("unknown app resolved")
	}
}

// TestMappingRendersAsTheProgramDoes: one Mapping value renders through
// each program's own Mapping type, whose spellings differ.
func TestMappingRendersAsTheProgramDoes(t *testing.T) {
	mp := Mapping{Modules: 2, Stages: []int{4}}
	want := map[string]string{
		"ffthist": "replicated(2 modules x dp 4)",
		"radar":   "replicated(2 x dp 4)",
		"stereo":  "replicated(2 x dp 4)",
	}
	for app, w := range want {
		a, err := ByName(app, true, 6, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.MappingString(mp); got != w {
			t.Errorf("%s renders %+v as %q, want %q", app, mp, got, w)
		}
	}
}
