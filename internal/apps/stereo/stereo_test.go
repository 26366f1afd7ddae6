package stereo

import (
	"testing"

	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

func smallConfig() Config {
	return Config{W: 32, H: 24, Disparities: 4, Window: 2, Sets: 5}
}

func run(t *testing.T, procs int, cfg Config, mp mapping.Mapping) Result {
	t.Helper()
	m := machine.New(procs, sim.Paragon())
	return Run(m, cfg, mp)
}

func TestValidate(t *testing.T) {
	cfg := smallConfig()
	cases := []struct {
		mp    mapping.Mapping
		procs int
		ok    bool
	}{
		{mapping.DataParallel(4), 4, true},
		{mapping.Mapping{Modules: 1, Stages: []int{2, 2, 2}}, 6, true},
		{mapping.Mapping{Modules: 2, Stages: []int{3}}, 8, true},
		{mapping.Mapping{Modules: 1, Stages: []int{2, 2}}, 4, false},
		{mapping.DataParallel(25), 32, false}, // exceeds H rows
		{mapping.DataParallel(24), 32, false}, // 1-row blocks under the 2-row window
		{mapping.Mapping{Modules: 1, Stages: []int{2, 24, 2}}, 32, false},
		{mapping.Mapping{Modules: 1, Stages: []int{24, 12, 2}}, 38, true}, // only the error stage exchanges halos
		{mapping.DataParallel(5), 4, false},
	}
	for _, tc := range cases {
		err := cfg.ValidateMapping(tc.mp, tc.procs)
		if (err == nil) != tc.ok {
			t.Errorf("%v on %d: err=%v want ok=%v", tc.mp, tc.procs, err, tc.ok)
		}
	}
}

func TestDepthRecoversScene(t *testing.T) {
	// With noise-free shifted match images and block-constant disparities,
	// the argmin depth must match the generating scene away from block and
	// image boundaries. Single processor, single set.
	cfg := Config{W: 64, H: 48, Disparities: 4, Window: 1, Sets: 1}
	m := machine.New(1, sim.Paragon())
	var captured []int32
	fxRunCapture(m, cfg, &captured)
	errs := 0
	checked := 0
	for i := 8; i < cfg.H-8; i++ {
		for j := 16; j < cfg.W-8; j++ {
			// Skip pixels near disparity-block boundaries.
			if (i%24) < 3 || (i%24) > 20 || (j%32) < 9 || (j%32) > 28 {
				continue
			}
			checked++
			want := scene(0, i, j, cfg.Disparities)
			if int(captured[i*cfg.W+j]) != want {
				errs++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no pixels checked")
	}
	if float64(errs) > 0.05*float64(checked) {
		t.Errorf("depth wrong at %d/%d interior pixels", errs, checked)
	}
}

// fxRunCapture runs the data-parallel program on one processor and captures
// the depth image of set 0 via the package internals.
func fxRunCapture(m *machine.Machine, cfg Config, out *[]int32) {
	res := RunCaptureDepth(m, cfg)
	*out = res
}

func TestMappingsAgree(t *testing.T) {
	cfg := smallConfig()
	ref := run(t, 1, cfg, mapping.DataParallel(1))
	for _, tc := range []struct {
		procs int
		mp    mapping.Mapping
	}{
		{4, mapping.DataParallel(4)},
		{6, mapping.Mapping{Modules: 1, Stages: []int{2, 2, 2}}},
		{8, mapping.Mapping{Modules: 2, Stages: []int{4}}},
		{10, mapping.Mapping{Modules: 2, Stages: []int{2, 2, 1}}},
		{3, mapping.DataParallel(3)},                                // uneven rows
		{38, mapping.Mapping{Modules: 1, Stages: []int{24, 12, 2}}}, // 1-row blocks outside the error stage
	} {
		res := run(t, tc.procs, cfg, tc.mp)
		if res.Stream.Sets != cfg.Sets {
			t.Errorf("%v completed %d sets", tc.mp, res.Stream.Sets)
			continue
		}
		for set := 0; set < cfg.Sets; set++ {
			if res.DepthSum[set] != ref.DepthSum[set] {
				t.Errorf("%v set %d: depth checksum %d != %d", tc.mp, set, res.DepthSum[set], ref.DepthSum[set])
			}
		}
	}
}

func TestPipelineAndReplicationImproveThroughput(t *testing.T) {
	cfg := Config{W: 64, H: 24, Disparities: 8, Window: 2, Sets: 10}
	dp := run(t, 8, cfg, mapping.DataParallel(8))
	pl := run(t, 8, cfg, mapping.Mapping{Modules: 1, Stages: []int{4, 2, 2}})
	rep := run(t, 8, cfg, mapping.Mapping{Modules: 2, Stages: []int{4}})
	if pl.Stream.Throughput <= dp.Stream.Throughput &&
		rep.Stream.Throughput <= dp.Stream.Throughput {
		t.Errorf("neither pipeline (%.2f) nor replication (%.2f) beat DP (%.2f)",
			pl.Stream.Throughput, rep.Stream.Throughput, dp.Stream.Throughput)
	}
	if dp.Stream.Latency > pl.Stream.Latency {
		t.Errorf("DP latency %.4f should not exceed pipeline latency %.4f",
			dp.Stream.Latency, pl.Stream.Latency)
	}
}

func TestModelOptimizeFeasible(t *testing.T) {
	cfg := smallConfig()
	model := BuildModel(sim.Paragon(), cfg, 8)
	c, err := mapping.Optimize(model, 0)
	if err != nil {
		t.Fatal(err)
	}
	mp := c.Mapping
	if err := cfg.ValidateMapping(mp, 8); err != nil {
		t.Fatalf("mapper produced invalid mapping %v: %v", mp, err)
	}
	res := run(t, 8, cfg, mp)
	if res.Stream.Sets != cfg.Sets {
		t.Errorf("completed %d sets", res.Stream.Sets)
	}
}
