package sensor

import (
	"testing"

	"fxpar/internal/apps/stereo"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

// TestByNameSizes pins the workload sizes ByName is the only place to hold:
// Table 1's paper sizes, the quick sizes, and the leading-extent override.
func TestByNameSizes(t *testing.T) {
	for _, tc := range []struct {
		app      string
		quick    bool
		n        int
		size     string
		dpWidth  int
		wantPars string
	}{
		{"ffthist", false, 0, "256x256", 256, "N=256,Bins=64,Sets=8"},
		{"ffthist", true, 0, "32x32", 32, "N=32,Bins=64,Sets=8"},
		{"ffthist", true, 64, "64x64", 64, "N=64,Bins=64,Sets=8"},
		{"radar", false, 0, "512x40", 40, "Gates=512,Rows=40,Scale=0.001953125,Thr=0.05,Sets=8"},
		{"radar", true, 0, "64x8", 8, "Gates=64,Rows=8,Scale=0.015625,Thr=0.05,Sets=8"},
		{"radar", false, 64, "64x40", 40, "Gates=64,Rows=40,Scale=0.001953125,Thr=0.05,Sets=8"},
		{"stereo", false, 0, "256x240", 239, "W=256,H=240,D=16,Win=2,Sets=8"},
		{"stereo", true, 0, "64x24", 23, "W=64,H=24,D=8,Win=2,Sets=8"},
		{"stereo", false, 64, "64x240", 239, "W=64,H=240,D=16,Win=2,Sets=8"},
	} {
		a, err := ByName(tc.app, tc.quick, 8, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		dp := a.DataParallel(1024)
		if a.Name != tc.app || a.Size != tc.size || dp.Stages[0] != tc.dpWidth || a.Params != tc.wantPars {
			t.Errorf("ByName(%s, quick=%v, n=%d) = %s %s %v %q", tc.app, tc.quick, tc.n, a.Name, a.Size, dp, a.Params)
		}
	}
	if _, err := ByName("sonar", false, 8, 0); err == nil {
		t.Error("unknown app resolved")
	}
}

// TestByNameRejectsSizesItCannotRun: a size the program cannot run is an
// error from ByName, not a panic in a later run.
func TestByNameRejectsSizesItCannotRun(t *testing.T) {
	for _, tc := range []struct {
		app   string
		quick bool
		n     int
	}{
		{"ffthist", false, 100}, {"ffthist", true, 12}, {"ffthist", true, -1},
		{"radar", false, 100}, {"radar", true, 48}, {"radar", true, -1},
		{"stereo", false, -1}, {"stereo", true, -64},
	} {
		if _, err := ByName(tc.app, tc.quick, 2, tc.n); err == nil {
			t.Errorf("ByName(%s, quick=%v, n=%d) accepted a size the program cannot run", tc.app, tc.quick, tc.n)
		}
	}
}

// TestQuickStereoOptimizesPastErrorCap: the Table 1 cell for quick stereo
// runs on a machine wider than its error stage can use — data-parallel
// baseline, cost tables and chosen mapping alike.
func TestQuickStereoOptimizesPastErrorCap(t *testing.T) {
	a, err := ByName("stereo", true, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	const p = 32
	r, err := a.Optimize(sim.Paragon(), p, 0, 2, mapping.BuildOptions{Workers: 2},
		func() *machine.Machine { return machine.New(p, sim.Paragon()) })
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(r.Choice.Mapping, p); err != nil {
		t.Errorf("chose %v: %v", r.Choice, err)
	}
	if r.DP.Stream.Sets != 4 || r.Task.Stream.Sets != 4 {
		t.Errorf("completed %d (DP) and %d (task) of 4 sets", r.DP.Stream.Sets, r.Task.Stream.Sets)
	}
}

// TestOptimizerChoicesPassValidate holds the mapper and Validate to one cap
// rule: on machines wider than each quick program's narrowest cap, every
// mapping the optimizer picks from the program's measured model — for goals
// up to 8x the data-parallel rate — and the data-parallel baseline pass
// App.Validate, and a baseline one processor wider does not. Quick stereo (H=24, Window=2) is the case where 24 one-row
// error blocks would undercut the window.
func TestOptimizerChoicesPassValidate(t *testing.T) {
	if got := (stereo.Config{W: 64, H: 24, Disparities: 8, Window: 2}).ErrorCap(); got != 23 {
		t.Fatalf("quick stereo ErrorCap = %d, want 23", got)
	}
	for _, tc := range []struct {
		app string
		p   int
	}{{"ffthist", 40}, {"radar", 16}, {"stereo", 32}} {
		t.Run(tc.app, func(t *testing.T) {
			a, err := ByName(tc.app, true, 8, 0)
			if err != nil {
				t.Fatal(err)
			}
			dp := a.DataParallel(tc.p)
			if w := dp.Stages[0]; w >= tc.p || a.Validate(dp, tc.p) != nil || a.Validate(mapping.DataParallel(w+1), tc.p) == nil {
				t.Fatalf("baseline %v on %d processors: %v, and one wider is not rejected", dp, tc.p, a.Validate(dp, tc.p))
			}
			m, _, err := a.Model(sim.Paragon(), tc.p, mapping.BuildOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			feasible := 0
			for _, ratio := range []float64{0, 1, 1.5, 2, 3, 4, 6, 8} {
				for _, optimize := range []func(mapping.Model, float64) (mapping.Choice, error){mapping.Optimize, mapping.OptimizePipeline} {
					c, err := optimize(m, ratio/m.DPT[tc.p])
					if err != nil {
						continue
					}
					feasible++
					t.Logf("goal %gx DP: %v", ratio, c.Mapping)
					if err := a.Validate(c.Mapping, tc.p); err != nil {
						t.Errorf("goal %gx DP: optimizer chose %v: %v", ratio, c, err)
					}
				}
			}
			if feasible < 2 {
				t.Errorf("only %d goals feasible", feasible)
			}
		})
	}
}

// TestMappingRendersAsTheProgramDoes: one Mapping value is accepted and run
// by every program, and renders one way for all of them — as the optimizer's
// Choice selecting it does.
func TestMappingRendersAsTheProgramDoes(t *testing.T) {
	mp := mapping.Mapping{Modules: 2, Stages: []int{4}}
	const want = "2 x data-parallel(4)"
	for _, app := range []string{"ffthist", "radar", "stereo"} {
		a, err := ByName(app, true, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(mp, 8); err != nil {
			t.Fatalf("%s rejects %+v on 8 processors: %v", app, mp, err)
		}
		if out := a.Run(machine.New(8, sim.Paragon()), mp); out.Stream.Sets != 2 {
			t.Errorf("%s under %v completed %d of 2 sets", app, mp, out.Stream.Sets)
		}
		if got := mp.String(); got != want {
			t.Errorf("%s renders %+v as %q, want %q", app, mp, got, want)
		}
		if got := (mapping.Choice{Mapping: mp}).String(); got != want {
			t.Errorf("%s: Choice renders %+v as %q, want %q", app, mp, got, want)
		}
	}
}

// FuzzMappingValidate checks App.Validate against App.Run: a mapping the
// check accepts on a p-processor machine must run every quick program to
// completion without panicking. The seeds are /measure bodies that passed
// the serving layer's former, weaker check and then panicked the campaign.
func FuzzMappingValidate(f *testing.F) {
	f.Add(uint8(8), int8(2), []byte{4}, int8(2), []byte{4})     // wide modules == modules
	f.Add(uint8(30), int8(1), []byte{30}, int8(0), []byte(nil)) // over stereo's image rows
	f.Add(uint8(12), int8(1), []byte{12}, int8(0), []byte(nil)) // over radar's rows
	f.Add(uint8(12), int8(1), []byte{1, 9, 1, 1}, int8(0), []byte(nil))
	f.Fuzz(func(t *testing.T, p uint8, modules int8, stages []byte, wideModules int8, wide []byte) {
		if p < 1 || p > 32 {
			t.Skip()
		}
		sizes := func(bs []byte) []int {
			var out []int
			for _, b := range bs {
				out = append(out, int(int8(b)))
			}
			return out
		}
		mp := mapping.Mapping{Modules: int(modules), Stages: sizes(stages), WideModules: int(wideModules), WideStages: sizes(wide)}
		for _, name := range []string{"ffthist", "radar", "stereo"} {
			a, err := ByName(name, true, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if a.Validate(mp, int(p)) != nil {
				continue
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s accepted %+v on %d processors, then Run panicked: %v", name, mp, p, r)
					}
				}()
				if out := a.Run(machine.New(int(p), sim.Paragon()), mp); out.Stream.Sets != 2 {
					t.Fatalf("%s under %+v on %d processors completed %d of 2 sets", name, mp, p, out.Stream.Sets)
				}
			}()
		}
	})
}
