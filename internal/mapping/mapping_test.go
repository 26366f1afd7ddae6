package mapping

import (
	"math"
	"strings"
	"testing"
)

// syntheticModel builds a simple 3-stage model: stage s costs base[s]/p + fixed[s]
// seconds on p processors; transfers cost xfer seconds flat.
func syntheticModel(p int, base, fixed [3]float64, xfer float64) Model {
	m := Model{
		P:          p,
		StageNames: []string{"s0", "s1", "s2"},
		StageT:     make([][]float64, 3),
		DPT:        make([]float64, p+1),
		Caps:       []int{0, 0, 0},
		Xfer:       func(s, a, b int) float64 { return xfer },
	}
	for s := 0; s < 3; s++ {
		m.StageT[s] = make([]float64, p+1)
		for q := 1; q <= p; q++ {
			m.StageT[s][q] = base[s]/float64(q) + fixed[s]
		}
	}
	for q := 1; q <= p; q++ {
		m.DPT[q] = m.StageT[0][q] + m.StageT[1][q] + m.StageT[2][q] + 2*xfer
	}
	return m
}

func TestValidate(t *testing.T) {
	m := syntheticModel(8, [3]float64{1, 1, 1}, [3]float64{}, 0.01)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := m
	bad.StageT = bad.StageT[:2]
	if err := bad.Validate(); err == nil {
		t.Error("truncated stage table accepted")
	}
	bad2 := m
	bad2.Xfer = nil
	if err := bad2.Validate(); err == nil {
		t.Error("nil Xfer accepted")
	}
}

func TestLatencyOnlyPicksDataParallel(t *testing.T) {
	// With perfectly scalable stages and nonzero transfer costs, using all
	// processors for every stage minimizes latency.
	m := syntheticModel(16, [3]float64{1, 1, 1}, [3]float64{}, 0.01)
	c, err := Optimize(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Stages) != 1 || c.Modules != 1 || c.Stages[0] != 16 {
		t.Errorf("latency-only choice = %v, want data-parallel(16)", c)
	}
}

func TestThroughputGoalForcesPipelineOrReplication(t *testing.T) {
	// Large fixed per-stage costs make data parallelism stop scaling:
	// DP time ~ 3*fixed regardless of p, so a throughput goal above
	// 1/(3*fixed) requires pipelining (period ~ fixed).
	m := syntheticModel(16, [3]float64{0.1, 0.1, 0.1}, [3]float64{0.1, 0.1, 0.1}, 0.001)
	dpT := m.DPT[16]
	goal := 1.5 / dpT
	c, err := Optimize(m, goal)
	if err != nil {
		t.Fatal(err)
	}
	if c.Modules == 1 && len(c.Stages) == 1 {
		t.Errorf("goal %.2f (DP max %.2f): still chose %v", goal, 1/dpT, c)
	}
	if c.PredThroughput < goal {
		t.Errorf("choice %v predicted throughput %.3f < goal %.3f", c, c.PredThroughput, goal)
	}
}

func TestHigherGoalNeedsMoreReplication(t *testing.T) {
	// Serial input: stage 0 has a large fixed cost; only replication can
	// push throughput past 1/fixed0.
	m := syntheticModel(16, [3]float64{0.05, 0.05, 0.05}, [3]float64{0.2, 0, 0}, 0.001)
	// One module can never beat 1/0.2 = 5 sets/s.
	c, err := Optimize(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Modules < 2 {
		t.Errorf("goal 8 with 5/s serial cap chose %v (modules=%d)", c, c.Modules)
	}
	if c.PredThroughput < 8 {
		t.Errorf("predicted %.2f < 8", c.PredThroughput)
	}
}

func TestInfeasibleGoal(t *testing.T) {
	m := syntheticModel(4, [3]float64{1, 1, 1}, [3]float64{0.5, 0.5, 0.5}, 0.01)
	if _, err := Optimize(m, 1e9); err == nil {
		t.Error("absurd goal accepted")
	}
}

func TestLatencyMonotoneInGoal(t *testing.T) {
	// Tightening the throughput constraint can only increase optimal latency.
	m := syntheticModel(32, [3]float64{0.3, 0.5, 0.2}, [3]float64{0.02, 0.01, 0.01}, 0.005)
	prev := 0.0
	for _, goal := range []float64{0, 1, 2, 5, 10, 20} {
		c, err := Optimize(m, goal)
		if err != nil {
			break
		}
		if c.PredLatency+1e-12 < prev {
			t.Errorf("goal %g: latency %.4f < previous %.4f", goal, c.PredLatency, prev)
		}
		prev = c.PredLatency
	}
}

func TestCapsRespected(t *testing.T) {
	m := syntheticModel(16, [3]float64{1, 1, 1}, [3]float64{}, 0.001)
	m.Caps = []int{4, 4, 4}
	c, err := Optimize(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Stages {
		if p > 4 {
			t.Errorf("choice %v exceeds cap 4", c)
		}
	}
	// DP mode must also respect the smallest cap.
	if len(c.Stages) == 1 && c.Stages[0] > 4 {
		t.Errorf("DP choice %v exceeds cap", c)
	}
}

func TestPipelineDPBalances(t *testing.T) {
	// Stage 1 is 4x the work of stages 0 and 2; under a tight throughput
	// goal the DP must give it more processors.
	m := syntheticModel(12, [3]float64{1, 4, 1}, [3]float64{0.01, 0.01, 0.01}, 0.001)
	c, err := Optimize(m, 1.95) // just above what any data-parallel variant reaches
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Stages) != 3 {
		t.Fatalf("goal 1.95 should force a pipeline, got %v", c)
	}
	if c.Stages[1] <= c.Stages[0] || c.Stages[1] <= c.Stages[2] {
		t.Errorf("heavy stage not favored: %v", c)
	}
}

// TestMappingString pins the one rendering every layer prints: Table 1's and
// Figure 5's mapping column, /optimize's best, /measure's mapping, fxprof's
// header.
func TestMappingString(t *testing.T) {
	cases := []struct {
		mp   Mapping
		want string
	}{
		{DataParallel(8), "data-parallel(8)"},
		{Mapping{Modules: 2, Stages: []int{4}}, "2 x data-parallel(4)"},
		{Mapping{Modules: 1, Stages: []int{4, 2, 2}}, "pipeline[4 2 2]"},
		{Mapping{Modules: 2, Stages: []int{1, 2, 3}}, "2 x pipeline[1 2 3]"},
		{Mapping{Modules: 1, Stages: []int{2, 3, 1, 1}}, "pipeline[2 3 1 1]"},
		{Mapping{Modules: 3, Stages: []int{21}, WideModules: 1, WideStages: []int{22}},
			"1 x data-parallel(22) + 2 x data-parallel(21)"},
		{Mapping{Modules: 3, Stages: []int{2, 2, 2}, WideModules: 1, WideStages: []int{3, 2, 2}},
			"1 x pipeline[3 2 2] + 2 x pipeline[2 2 2]"},
	}
	for _, tc := range cases {
		if got := tc.mp.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestUsesProcs(t *testing.T) {
	c := Choice{Mapping: Mapping{Modules: 2, Stages: []int{3, 4, 1}}}
	if c.Procs() != 16 {
		t.Errorf("Procs = %d", c.Procs())
	}
}

// TestChoiceString: a Choice renders as the mapping it selected.
func TestChoiceString(t *testing.T) {
	cases := []struct {
		c    Choice
		want string
	}{
		{Choice{Mapping: Mapping{Modules: 1, Stages: []int{8}}, PredLatency: 1}, "data-parallel(8)"},
		{Choice{Mapping: Mapping{Modules: 2, Stages: []int{8}}, PredLatency: 1}, "2 x data-parallel(8)"},
		{Choice{Mapping: Mapping{Modules: 1, Stages: []int{1, 2, 3}}, PredLatency: 1}, "pipeline[1 2 3]"},
		{Choice{Mapping: Mapping{Modules: 2, Stages: []int{1, 2, 3}}, PredLatency: 1}, "2 x pipeline[1 2 3]"},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestMappingValidate has one case per error branch of the shape check.
func TestMappingValidate(t *testing.T) {
	cases := []struct {
		mp    Mapping
		procs int
		want  string // "" = valid; otherwise a substring of the error
	}{
		{DataParallel(8), 8, ""},
		{DataParallel(8), 9, ""}, // idle processors are allowed
		{Mapping{Modules: 2, Stages: []int{2, 1, 1}}, 8, ""},
		{Mapping{Modules: 3, Stages: []int{2}, WideModules: 1, WideStages: []int{3}}, 7, ""},
		{Mapping{Modules: 0, Stages: []int{8}}, 8, "need at least 1 module, got 0"},
		{Mapping{Modules: 2, Stages: []int{4}, WideModules: 2, WideStages: []int{4}}, 8, "WideModules = 2 of 2"},
		{Mapping{Modules: 2, Stages: []int{4}, WideModules: -1}, 8, "WideModules = -1 of 2"},
		{Mapping{Modules: 1, Stages: []int{4, 4}}, 8, "need 1 or 3 stage sizes, got [4 4]"},
		{Mapping{Modules: 1}, 8, "need 1 or 3 stage sizes, got []"},
		{Mapping{Modules: 1, Stages: []int{0, 4, 4}}, 8, "non-positive stage size in [0 4 4]"},
		{Mapping{Modules: 1, Stages: []int{1 << 62, 1 << 62, 2}}, 8, "stage of 4611686018427387904 processors exceeds the machine's 8"},
		{Mapping{Modules: 2, Stages: []int{2}, WideModules: 1, WideStages: []int{1, 1, 1}}, 8, "wide stages [1 1 1] mismatch narrow [2]"},
		{Mapping{Modules: 2, Stages: []int{2}, WideModules: 1}, 8, "need 1 or 3 stage sizes, got []"},
		{Mapping{Modules: 2, Stages: []int{2}, WideStages: []int{3}}, 8, "WideStages [3] with zero WideModules"},
		{Mapping{Modules: 2, Stages: []int{5}}, 8, "mapping uses 10 processors, machine has 8"},
		{Mapping{Modules: 1 << 62, Stages: []int{4}}, 8, "machine has 8"}, // Procs overflows to 0
	}
	for _, tc := range cases {
		err := tc.mp.Validate(tc.procs, []int{0, 0, 0})
		if tc.want == "" {
			if err != nil {
				t.Errorf("%+v on %d procs: unexpected error %v", tc.mp, tc.procs, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v on %d procs: err = %v, want %q", tc.mp, tc.procs, err, tc.want)
		}
	}
}

// TestValidateCaps pins the cap rule at its boundary: a stage exactly at its
// cap is accepted and one processor more is rejected, for data-parallel
// modules (held to the narrowest cap), pipeline stages and wide modules; a
// cap of 0 bounds nothing.
func TestValidateCaps(t *testing.T) {
	capped, uncapped, middle := []int{8, 4, 6}, []int{0, 0, 0}, []int{0, 4, 0}
	pipe := func(procs ...int) Mapping { return Mapping{Modules: 1, Stages: procs} }
	wide := func(narrow, wide []int) Mapping {
		return Mapping{Modules: 2, Stages: narrow, WideModules: 1, WideStages: wide}
	}
	for _, tc := range []struct {
		mp    Mapping
		procs int
		caps  []int
		want  string // "" = valid; otherwise a substring of the error
	}{
		{DataParallel(4), 32, capped, ""},
		{DataParallel(5), 32, capped, "data-parallel module of 5 processors exceeds the narrowest stage cap, 4"},
		{pipe(8, 4, 6), 32, capped, ""},
		{pipe(9, 4, 6), 32, capped, "stage 0 of 9 processors exceeds its cap, 8"},
		{pipe(8, 5, 6), 32, capped, "stage 1 of 5 processors exceeds its cap, 4"},
		{pipe(8, 4, 7), 32, capped, "stage 2 of 7 processors exceeds its cap, 6"},
		{wide([]int{3}, []int{4}), 32, capped, ""},
		{wide([]int{3}, []int{5}), 32, capped, "data-parallel module of 5 processors"},
		{wide([]int{4}, []int{5}), 32, capped, "data-parallel module of 5 processors"},
		{wide([]int{2, 2, 2}, []int{8, 4, 6}), 32, capped, ""},
		{wide([]int{2, 2, 2}, []int{8, 5, 6}), 32, capped, "stage 1 of 5 processors"},
		{wide([]int{8, 5, 6}, []int{8, 4, 6}), 32, capped, "stage 1 of 5 processors"},
		{DataParallel(32), 32, uncapped, ""},
		{pipe(30, 1, 1), 32, uncapped, ""},
		{DataParallel(4), 32, middle, ""},
		{DataParallel(5), 32, middle, "narrowest stage cap, 4"},
		{pipe(14, 4, 14), 32, middle, ""},
		{pipe(14, 5, 13), 32, middle, "stage 1 of 5 processors exceeds its cap, 4"},
	} {
		err := tc.mp.Validate(tc.procs, tc.caps)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%v under caps %v: unexpected error %v", tc.mp, tc.caps, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v under caps %v: err = %v, want %q", tc.mp, tc.caps, err, tc.want)
		}
	}
}

func TestPredictionFinite(t *testing.T) {
	m := syntheticModel(8, [3]float64{1, 2, 1}, [3]float64{0.05, 0, 0}, 0.01)
	c, err := Optimize(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(c.PredLatency, 0) || math.IsNaN(c.PredLatency) {
		t.Errorf("latency = %v", c.PredLatency)
	}
	if c.PredThroughput <= 0 {
		t.Errorf("throughput = %v", c.PredThroughput)
	}
}
