package radar

import (
	"maps"
	"testing"

	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

func smallConfig() Config {
	return Config{Gates: 32, Rows: 8, Sets: 6, Scale: 1.0 / 32, Threshold: 0.05}
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
		{mapping.DataParallel(8), 16, true}, // idle procs allowed
		{mapping.Mapping{Modules: 2, Stages: []int{1, 2, 1, 1}}, 10, true},
		{mapping.Mapping{Modules: 1, Stages: []int{1, 9, 1, 1}}, 16, false}, // fft stage over row cap
		{mapping.Mapping{Modules: 1, Stages: []int{1, 2}}, 4, false},        // wrong stage count
		{mapping.DataParallel(9), 16, false},                                // dp over row cap
	}
	for _, tc := range cases {
		err := tc.mp.Validate(tc.procs, cfg.Caps())
		if (err == nil) != tc.ok {
			t.Errorf("%v on %d: err=%v want ok=%v", tc.mp, tc.procs, err, tc.ok)
		}
	}
}

func TestDataParallelCompletes(t *testing.T) {
	cfg := smallConfig()
	res := run(t, 4, cfg, mapping.DataParallel(4))
	if res.Stream.Sets != cfg.Sets {
		t.Fatalf("completed %d sets", res.Stream.Sets)
	}
	for set, kept := range res.Kept {
		if kept <= 0 || kept >= cfg.Gates*cfg.Rows {
			t.Errorf("set %d kept %d detections (degenerate)", set, kept)
		}
	}
}

// runCase is a mapping on a machine of procs processors.
type runCase struct {
	procs int
	mp    mapping.Mapping
}

// agree runs cfg under every case and checks that each completes the stream
// with ref's detection counts.
func agree(t *testing.T, cfg Config, ref Result, cases []runCase) {
	t.Helper()
	for _, tc := range cases {
		res := run(t, tc.procs, cfg, tc.mp)
		if res.Stream.Sets != cfg.Sets || !maps.Equal(res.Kept, ref.Kept) {
			t.Errorf("%v: completed %d of %d sets, Kept %v, want %v", tc.mp, res.Stream.Sets, cfg.Sets, res.Kept, ref.Kept)
		}
	}
}

func TestMappingsAgree(t *testing.T) {
	cfg := smallConfig()
	agree(t, cfg, run(t, 1, cfg, mapping.DataParallel(1)), []runCase{
		{4, mapping.DataParallel(4)},
		{6, mapping.Mapping{Modules: 1, Stages: []int{1, 3, 1, 1}}},
		{8, mapping.Mapping{Modules: 2, Stages: []int{4}}},
		{12, mapping.Mapping{Modules: 2, Stages: []int{1, 3, 1, 1}}},
	})
}

func TestIdleProcessorsCapDataParallel(t *testing.T) {
	// With more processors than rows, the data-parallel program must leave
	// the excess idle: a 16-proc DP run is no faster than an 8-proc one.
	cfg := smallConfig()
	eight := run(t, 8, cfg, mapping.DataParallel(8))
	sixteen := run(t, 16, cfg, mapping.DataParallel(8)) // 8 idle
	ratio := sixteen.Stream.Throughput / eight.Stream.Throughput
	if ratio > 1.05 || ratio < 0.95 {
		t.Errorf("idle processors changed throughput: %.3f vs %.3f", sixteen.Stream.Throughput, eight.Stream.Throughput)
	}
}

func TestReplicationUsesIdleProcessors(t *testing.T) {
	// The paper's headline radar result: task parallelism exploits the
	// processors data parallelism cannot, raising throughput at ~equal
	// latency.
	cfg := Config{Gates: 64, Rows: 8, Sets: 12, Scale: 1.0 / 64, Threshold: 0.05}
	dp := run(t, 16, cfg, mapping.DataParallel(8))
	rep := run(t, 16, cfg, mapping.Mapping{Modules: 2, Stages: []int{8}})
	if rep.Stream.Throughput < dp.Stream.Throughput*1.5 {
		t.Errorf("replication throughput %.2f not ~2x data-parallel %.2f",
			rep.Stream.Throughput, dp.Stream.Throughput)
	}
	if rep.Stream.Latency > dp.Stream.Latency*1.3 {
		t.Errorf("replication latency %.4f much worse than DP %.4f",
			rep.Stream.Latency, dp.Stream.Latency)
	}
}

func TestModelOptimizeFeasible(t *testing.T) {
	cfg := smallConfig()
	model := closedModel(sim.Paragon(), cfg, 16)
	c, err := mapping.Optimize(model, 0)
	if err != nil {
		t.Fatal(err)
	}
	mp := c.Mapping
	if err := mp.Validate(16, cfg.Caps()); err != nil {
		t.Fatalf("mapper produced invalid mapping %v: %v", mp, err)
	}
	res := run(t, 16, cfg, mp)
	if res.Stream.Sets != cfg.Sets {
		t.Errorf("mapped run completed %d sets", res.Stream.Sets)
	}
}

func TestBadGatesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	run(t, 2, Config{Gates: 33, Rows: 4, Sets: 1}, mapping.DataParallel(2))
}
