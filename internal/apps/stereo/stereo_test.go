package stereo

import (
	"maps"
	"testing"

	"fxpar/internal/dist"
	"fxpar/internal/fx"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/stats"
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
		err := tc.mp.Validate(tc.procs, cfg.Caps())
		if (err == nil) != tc.ok {
			t.Errorf("%v on %d: err=%v want ok=%v", tc.mp, tc.procs, err, tc.ok)
		}
	}
}

// TestDepthRecoversScene: with noise-free shifted match images and
// block-constant disparities, the argmin depth must match the generating
// scene away from block and image boundaries. The program runs data
// parallel on one processor for one set, its depth stage gathering the
// image it computed.
func TestDepthRecoversScene(t *testing.T) {
	cfg := Config{W: 64, H: 48, Disparities: 4, Window: 1, Sets: 1}
	var captured []int32
	pr := program(cfg)
	pr[2].New = func(p *fx.Proc, vol *dist.Array[float64], done done) func(int) {
		depth := dist.New[int32](p.Proc, dist.RowBlock2D(vol.Layout().Group(), cfg.H, cfg.W))
		return func(set int) {
			depthStage(p, vol, depth, cfg, set, done)
			if full := dist.GatherGlobal(p.Proc, depth); full != nil {
				captured = full
			}
		}
	}
	pr.Run("stereo", machine.New(1, sim.Paragon()), mapping.DataParallel(1), cfg.Sets, stats.NewStream())
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

// runCase is a mapping on a machine of procs processors.
type runCase struct {
	procs int
	mp    mapping.Mapping
}

// agree runs cfg under every case and checks that each completes the stream
// with ref's depth checksums.
func agree(t *testing.T, cfg Config, ref Result, cases []runCase) {
	t.Helper()
	for _, tc := range cases {
		res := run(t, tc.procs, cfg, tc.mp)
		if res.Stream.Sets != cfg.Sets || !maps.Equal(res.DepthSum, ref.DepthSum) {
			t.Errorf("%v: completed %d of %d sets, DepthSum %v, want %v", tc.mp, res.Stream.Sets, cfg.Sets, res.DepthSum, ref.DepthSum)
		}
	}
}

func TestMappingsAgree(t *testing.T) {
	cfg := smallConfig()
	agree(t, cfg, run(t, 1, cfg, mapping.DataParallel(1)), []runCase{
		{4, mapping.DataParallel(4)},
		{6, mapping.Mapping{Modules: 1, Stages: []int{2, 2, 2}}},
		{8, mapping.Mapping{Modules: 2, Stages: []int{4}}},
		{10, mapping.Mapping{Modules: 2, Stages: []int{2, 2, 1}}},
		{3, mapping.DataParallel(3)},                                // uneven rows
		{38, mapping.Mapping{Modules: 1, Stages: []int{24, 12, 2}}}, // 1-row blocks outside the error stage
	})
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
	model := closedModel(sim.Paragon(), cfg, 8)
	c, err := mapping.Optimize(model, 0)
	if err != nil {
		t.Fatal(err)
	}
	mp := c.Mapping
	if err := mp.Validate(8, cfg.Caps()); err != nil {
		t.Fatalf("mapper produced invalid mapping %v: %v", mp, err)
	}
	res := run(t, 8, cfg, mp)
	if res.Stream.Sets != cfg.Sets {
		t.Errorf("completed %d sets", res.Stream.Sets)
	}
}
