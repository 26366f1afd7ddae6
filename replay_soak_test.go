// Replay-vs-resimulate equivalence soak: the skeleton-replay backend's core
// guarantee is that replaying a stored skeleton at its recorded parameters
// reproduces the recorded run bitwise — event stream and makespan — for
// healthy AND chaotic captures, under every execution engine, and across a
// round-trip through the on-disk store. Any divergence means the replay
// backend would silently hand campaigns wrong numbers.
package fxpar_test

import (
	"path/filepath"
	"testing"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/fault"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
	"fxpar/internal/trace"
)

// replaySoakScenario captures one P=64 FFT-Hist pipeline run under eng/fp
// and returns the recorded event stream plus the captured skeleton exactly
// as the replay backend stores it (via a live skeleton.Sink).
func replaySoakScenario(t *testing.T, eng machine.Engine, fp machine.FaultPlan, chaos string) ([]machine.Event, *skeleton.Skeleton) {
	t.Helper()
	cfg := ffthist.Config{N: 64, Sets: 8, Bins: 64}
	mp := mapping.Mapping{Modules: 2, Stages: []int{16, 8, 8}}
	col := &trace.Collector{}
	sink := skeleton.NewSink(sim.Paragon(), chaos)
	m := machine.New(64, sim.Paragon())
	m.SetEngine(eng)
	m.SetFaults(fp)
	m.SetTracer(trace.Tee(col, sink))
	ffthist.Run(m, cfg, mp)
	sk, err := sink.Skeleton()
	if err != nil {
		t.Fatalf("%s: skeleton: %v", eng.Name(), err)
	}
	return col.Events(), sk
}

// TestReplaySoakP64 drives the full replay path for a healthy and a chaotic
// P=64 scenario under both engine families: capture, store round-trip
// (in-memory and on-disk), identity replay, and a bitwise comparison of the
// re-costed event stream against the recorded one.
func TestReplaySoakP64(t *testing.T) {
	prof, err := fault.ProfileByName("flaky")
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.New(42, prof)

	scenarios := []struct {
		name  string
		fp    machine.FaultPlan
		chaos string
	}{
		{"healthy", nil, ""},
		{"chaos-flaky", plan.Machine(), plan.String()},
	}
	engines := []machine.Engine{machine.Goroutine(), machine.Coop(4)}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			store := skeleton.NewStore(filepath.Join(t.TempDir(), "skel"))
			var baseEvents []machine.Event
			var baseKey string
			for ei, eng := range engines {
				recorded, sk := replaySoakScenario(t, eng, sc.fp, sc.chaos)
				if len(recorded) == 0 {
					t.Fatalf("%s: run recorded no events", eng.Name())
				}

				// Engine independence of the capture itself.
				key, err := sk.Key()
				if err != nil {
					t.Fatalf("%s: key: %v", eng.Name(), err)
				}
				if ei == 0 {
					baseEvents, baseKey = recorded, key
				} else {
					if key != baseKey {
						t.Fatalf("%s: skeleton content key %s differs from %s", eng.Name(), key, baseKey)
					}
					if len(recorded) != len(baseEvents) {
						t.Fatalf("%s: %d recorded events vs %d", eng.Name(), len(recorded), len(baseEvents))
					}
					for i := range recorded {
						if recorded[i] != baseEvents[i] {
							t.Fatalf("%s: recorded event %d diverges:\n got %+v\nwant %+v",
								eng.Name(), i, recorded[i], baseEvents[i])
						}
					}
				}

				// Store round-trip: Put, then read back through a FRESH store
				// over the same directory so the disk path is exercised.
				k := skeleton.StoreKey{App: "ffthist.pipeline", Params: "N=64,Sets=8,Bins=64",
					Mapping: "m=2/16,8,8", P: 64, Chaos: sc.chaos, Cost: sim.Paragon()}
				if err := store.Put(k, sk); err != nil {
					t.Fatalf("%s: store.Put: %v", eng.Name(), err)
				}
				stored, src, ok := skeleton.NewStore(store.Dir()).Get(k)
				if !ok || src != skeleton.SourceDisk {
					t.Fatalf("%s: disk lookup failed (ok %v src %v)", eng.Name(), ok, src)
				}

				// Identity replay of the STORED skeleton must reproduce the
				// recorded run bitwise: makespan and full event stream.
				res, err := stored.RecostEvents(skeleton.Params{})
				if err != nil {
					t.Fatalf("%s: RecostEvents: %v", eng.Name(), err)
				}
				if res.Makespan != sk.Makespan {
					t.Fatalf("%s: replayed makespan %v != recorded %v", eng.Name(), res.Makespan, sk.Makespan)
				}
				// The skeleton keeps compute/send/recv/span structure and
				// derives waits; faults and retries are recorded ops.
				// Every replayed event must match its recorded counterpart
				// bitwise in (proc, seq) order.
				recordedSorted := append([]machine.Event(nil), recorded...)
				trace.SortEvents(recordedSorted)
				if len(res.Events) != len(recordedSorted) {
					t.Fatalf("%s: replay produced %d events, recorded %d", eng.Name(), len(res.Events), len(recordedSorted))
				}
				for i := range res.Events {
					if res.Events[i] != recordedSorted[i] {
						t.Fatalf("%s: replayed event %d diverges:\n got %+v\nwant %+v",
							eng.Name(), i, res.Events[i], recordedSorted[i])
					}
				}
			}
		})
	}
}
