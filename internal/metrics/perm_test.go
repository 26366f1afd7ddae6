package metrics_test

// Satellite property test for the scale tier: the StreamSink fold is
// byte-identical under every permutation of shard feeding order, because
// accumulation is per-processor and the merge runs through a fixed tree
// keyed on ascending processor order — never on arrival order. Verified at
// P=64 on both engines, healthy and under chaos.

import (
	"bytes"
	"testing"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/fault"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/metrics"
	"fxpar/internal/sim"
	"fxpar/internal/trace"
)

// permute64 returns a deterministic pseudo-random permutation of [0, n)
// derived from seed (splitmix64-style Fisher-Yates; no global RNG so the
// test is reproducible).
func permute64(n int, seed uint64) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

func permRunEvents(t *testing.T, eng machine.Engine, chaos bool) []machine.Event {
	t.Helper()
	const procs = 64
	col := &trace.Collector{}
	m := machine.New(procs, sim.Paragon())
	m.SetEngine(eng)
	m.SetTracer(col)
	if chaos {
		prof, err := fault.ProfileByName("flaky")
		if err != nil {
			t.Fatal(err)
		}
		m.SetFaults(fault.New(7, prof))
	}
	ffthist.Run(m, ffthist.Config{N: 64, Sets: 8, Bins: 16}, mapping.DataParallel(procs))
	return col.Events()
}

// TestStreamSinkFoldPermutationInvariant feeds the same event stream into
// fresh sinks with the per-processor event groups delivered in permuted
// processor order, and demands byte-identical snapshots — equal to the
// post-hoc FromTrace registry, too.
func TestStreamSinkFoldPermutationInvariant(t *testing.T) {
	const procs = 64
	for _, tc := range []struct {
		name  string
		eng   machine.Engine
		chaos bool
	}{
		{"goroutine-healthy", machine.Goroutine(), false},
		{"coop-healthy", machine.Coop(4), false},
		{"goroutine-chaos", machine.Goroutine(), true},
		{"coop-chaos", machine.Coop(4), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evs := permRunEvents(t, tc.eng, tc.chaos)
			byProc := make([][]machine.Event, procs)
			for _, e := range evs {
				byProc[e.Proc] = append(byProc[e.Proc], e)
			}
			want, err := metrics.FromTrace(evs).Snapshot().JSON()
			if err != nil {
				t.Fatal(err)
			}
			if tc.chaos && !bytes.Contains(want, []byte("faults")) {
				t.Fatalf("chaos run produced no fault markers; the chaotic case is not exercising chaos")
			}
			for trial := 0; trial < 12; trial++ {
				sink := metrics.NewStreamSink(procs)
				for _, p := range permute64(procs, uint64(trial)*0x1234567+1) {
					for _, e := range byProc[p] {
						sink.Record(e)
					}
				}
				got, err := sink.Snapshot().JSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("trial %d: permuted shard feed diverged from post-hoc snapshot", trial)
				}
			}
		})
	}
}
