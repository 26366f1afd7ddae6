package fxpar_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"fxpar/internal/apps/airshed"
	"fxpar/internal/apps/barneshut"
	"fxpar/internal/apps/multiblock"
	"fxpar/internal/apps/qsort"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
	"fxpar/internal/trace"
)

// nestedApps are the nested task-parallel programs of Section 5, each at a
// size small enough to run traced at P = 64 on every engine. run returns
// the result to digest; it is skipped on machines the program cannot use
// (airshed's TaskIO needs three processors).
var nestedApps = []struct {
	name    string
	minProc int
	run     func(m *machine.Machine) any
}{
	{"qsort", 1, func(m *machine.Machine) any { return qsort.Run(m, 3000, 42) }},
	{"barneshut", 1, func(m *machine.Machine) any {
		return barneshut.Run(m, barneshut.Config{N: 192, Theta: 0.7, Seed: 3})
	}},
	{"airshed-dp", 1, func(m *machine.Machine) any { return airshed.Run(m, smallAirshed, airshed.DataParallel) }},
	{"airshed-taskio", 3, func(m *machine.Machine) any { return airshed.Run(m, smallAirshed, airshed.TaskIO) }},
	{"multiblock", 1, func(m *machine.Machine) any {
		cfg := multiblock.Config{H: 12, Widths: []int{9, 5, 7}, Iters: 4, Left: 100, Right: 0}
		per := []int{1, 1, 1}
		switch n := m.N(); {
		case n < 3:
			cfg.Widths, per = cfg.Widths[:1], []int{n}
		case n >= 16:
			per = []int{n / 4, n / 8, n / 2}
		default:
			per = []int{n - 2, 1, 1}
		}
		return multiblock.Run(m, cfg, per)
	}},
}

var smallAirshed = airshed.Config{
	Layers: 2, Grid: 40, Species: 5, Hours: 3, Steps: 2,
	ChemFlops: 220, TransFlops: 25, PreFlops: 10,
}

// nestedDigest runs one program traced on a fresh machine and returns the
// FNV-64a of its result (printed with %+v, whose floats round-trip), every
// Collector event field by field (floats by their bits) and the encoded
// skeleton.
func nestedDigest(t *testing.T, eng machine.Engine, procs int, run func(*machine.Machine) any) uint64 {
	t.Helper()
	m := machine.New(procs, sim.Paragon())
	m.SetEngine(eng)
	var col trace.Collector
	sink := skeleton.NewSink(sim.Paragon(), "")
	m.SetTracer(trace.Tee(&col, sink))
	h := fnv.New64a()
	fmt.Fprintf(h, "result %+v\n", run(m))
	for _, e := range col.Events() {
		fmt.Fprintf(h, "%d %d %x %x %d %d %d %q %d %x %x %d\n", e.Proc, e.Kind,
			math.Float64bits(e.Start), math.Float64bits(e.End), e.Seq, e.Peer, e.Bytes,
			e.Label, e.Depth, math.Float64bits(e.Dur), math.Float64bits(e.Wire), e.PairSeq)
	}
	sk, err := sink.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sk.Encode()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	return h.Sum64()
}

// TestPinnedNestedDigests pins everything a nested-parallel run shows —
// result, events and skeleton — for quicksort, Barnes-Hut, both airshed
// variants and multiblock at P ∈ {1, 5, 16, 64}, under the goroutine
// engine, coop with one and four slots, and coop with shuffled ties. Every
// engine must reproduce the one literal per (program, P): a change to how
// processors are spawned, parked or scheduled must leave each where it is.
func TestPinnedNestedDigests(t *testing.T) {
	want := map[string][4]uint64{
		"qsort":          {0x24b2279705876251, 0xb688988af181305b, 0xe1c35431a5283585, 0x7d97e10711f6e29b},
		"barneshut":      {0xed859025261672d6, 0x251a614b074a3533, 0x3eba5c70e30d7037, 0x79f5ff7d8a0a2086},
		"airshed-dp":     {0x8d060064504d54e8, 0xc3584ec3abc800f8, 0x32c8609c04f28e69, 0x844645362ce6e368},
		"airshed-taskio": {0, 0xbeb4ebbab6ed5333, 0x743e2b9cf4f5a63b, 0xb3cd94ca721a9a7c}, // P = 1 is not run
		"multiblock":     {0x1e9a7abc86f2880b, 0x49a3e7efcd4586cb, 0x303cae77bb64cbb2, 0x6b3bb792635b17d5},
	}
	engines := []machine.Engine{machine.Goroutine(), machine.Coop(1), machine.Coop(4), machine.CoopShuffled(1, 9)}
	for _, app := range nestedApps {
		for i, procs := range []int{1, 5, 16, 64} {
			if procs < app.minProc {
				continue
			}
			for _, eng := range engines {
				if got := nestedDigest(t, eng, procs, app.run); got != want[app.name][i] {
					t.Errorf("%s on %d under %s: digest %#x, pinned %#x", app.name, procs, eng.Name(), got, want[app.name][i])
				}
			}
		}
	}
}
