package ffthist

import (
	"maps"
	"slices"
	"testing"

	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

func smallConfig() Config { return Config{N: 16, Sets: 6, Bins: 8} }

func run(t *testing.T, procs int, cfg Config, mp mapping.Mapping) Result {
	t.Helper()
	m := machine.New(procs, sim.Paragon())
	return Run(m, cfg, mp)
}

func TestMappingValidate(t *testing.T) {
	cases := []struct {
		mp    mapping.Mapping
		procs int
		ok    bool
	}{
		{mapping.DataParallel(8), 8, true},
		{Pipeline(2, 4, 2), 8, true},
		{mapping.Mapping{Modules: 2, Stages: []int{4}}, 8, true},
		{mapping.Mapping{Modules: 2, Stages: []int{2, 1, 1}}, 8, true},
		{mapping.DataParallel(8), 9, true}, // one idle processor is allowed
		{mapping.DataParallel(9), 8, false},
		{mapping.Mapping{Modules: 0, Stages: []int{8}}, 8, false},
		{mapping.Mapping{Modules: 1, Stages: []int{4, 4}}, 8, false},
		{mapping.Mapping{Modules: 1, Stages: []int{0, 4, 4}}, 8, false},
	}
	for _, tc := range cases {
		err := tc.mp.Validate(tc.procs, smallConfig().Caps())
		if (err == nil) != tc.ok {
			t.Errorf("%v on %d procs: err=%v, want ok=%v", tc.mp, tc.procs, err, tc.ok)
		}
	}
}

// TestMappingString: FFT-Hist's mappings render in the optimizer's spelling.
func TestMappingString(t *testing.T) {
	if got := mapping.DataParallel(64).String(); got != "data-parallel(64)" {
		t.Errorf("got %q", got)
	}
	if got := Pipeline(1, 2, 3).String(); got != "pipeline[1 2 3]" {
		t.Errorf("got %q", got)
	}
	if got := (mapping.Mapping{Modules: 2, Stages: []int{4}}).String(); got != "2 x data-parallel(4)" {
		t.Errorf("got %q", got)
	}
}

func TestDataParallelCompletesAllSets(t *testing.T) {
	cfg := smallConfig()
	res := run(t, 4, cfg, mapping.DataParallel(4))
	if res.Stream.Sets != cfg.Sets {
		t.Fatalf("completed %d sets, want %d", res.Stream.Sets, cfg.Sets)
	}
	if len(res.Hists) != cfg.Sets {
		t.Fatalf("recorded %d histograms", len(res.Hists))
	}
	for set, h := range res.Hists {
		var total int64
		for _, c := range h {
			total += c
		}
		if total != int64(cfg.N*cfg.N) {
			t.Errorf("set %d histogram sums to %d, want %d", set, total, cfg.N*cfg.N)
		}
	}
}

// runCase is a mapping on a machine of procs processors.
type runCase struct {
	procs int
	mp    mapping.Mapping
}

// agree runs cfg under every case and checks that each completes the stream
// with ref's histograms.
func agree(t *testing.T, cfg Config, ref Result, cases []runCase) {
	t.Helper()
	for _, tc := range cases {
		res := run(t, tc.procs, cfg, tc.mp)
		if res.Stream.Sets != cfg.Sets || !maps.EqualFunc(res.Hists, ref.Hists, slices.Equal) {
			t.Errorf("%v: completed %d of %d sets, histograms %v, want %v", tc.mp, res.Stream.Sets, cfg.Sets, res.Hists, ref.Hists)
		}
	}
}

// All mappings must compute identical histograms: the directives are
// assertions, not semantics (Section 2.2).
func TestMappingsAgree(t *testing.T) {
	cfg := smallConfig()
	agree(t, cfg, run(t, 4, cfg, mapping.DataParallel(4)), []runCase{
		{1, mapping.DataParallel(1)},
		{6, Pipeline(2, 3, 1)},
		{3, Pipeline(1, 1, 1)},
		{8, mapping.Mapping{Modules: 2, Stages: []int{4}}},
		{8, mapping.Mapping{Modules: 2, Stages: []int{2, 1, 1}}},
		{6, mapping.Mapping{Modules: 3, Stages: []int{2}}},
	})
}

func TestPipelineImprovesThroughput(t *testing.T) {
	// With the serial per-set input on stage 1, a pipeline must beat the
	// data-parallel mapping on throughput for a long enough stream.
	cfg := Config{N: 32, Sets: 10, Bins: 16}
	dp := run(t, 6, cfg, mapping.DataParallel(6))
	pl := run(t, 6, cfg, Pipeline(2, 2, 2))
	if pl.Stream.Throughput <= dp.Stream.Throughput {
		t.Errorf("pipeline throughput %.2f <= data-parallel %.2f",
			pl.Stream.Throughput, dp.Stream.Throughput)
	}
	// And data-parallel must win on latency (Figure 5, leftmost mapping).
	if dp.Stream.Latency >= pl.Stream.Latency {
		t.Errorf("data-parallel latency %.4f >= pipeline %.4f",
			dp.Stream.Latency, pl.Stream.Latency)
	}
}

func TestReplicationScalesThroughput(t *testing.T) {
	cfg := Config{N: 32, Sets: 12, Bins: 16}
	one := run(t, 4, cfg, mapping.DataParallel(4))
	two := run(t, 8, cfg, mapping.Mapping{Modules: 2, Stages: []int{4}})
	if two.Stream.Throughput < one.Stream.Throughput*1.5 {
		t.Errorf("2 modules throughput %.2f not ~2x single %.2f",
			two.Stream.Throughput, one.Stream.Throughput)
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := smallConfig()
	a := run(t, 6, cfg, Pipeline(2, 3, 1))
	b := run(t, 6, cfg, Pipeline(2, 3, 1))
	if a.Stream.Throughput != b.Stream.Throughput || a.Stream.Latency != b.Stream.Latency {
		t.Errorf("virtual-time results differ across runs: %+v vs %+v", a.Stream, b.Stream)
	}
	if a.Makespan != b.Makespan {
		t.Errorf("makespan differs: %g vs %g", a.Makespan, b.Makespan)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two N")
		}
	}()
	run(t, 2, Config{N: 12, Sets: 1, Bins: 4}, mapping.DataParallel(2))
}
