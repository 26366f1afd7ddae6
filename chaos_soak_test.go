// Chaos soak: the headline guarantee of the fault layer is that a chaotic
// run always terminates — with output identical to the healthy run under
// non-lethal profiles, or with a typed error cascade rooted at an injected
// death under lethal ones — and never hangs. This soak drives a P=256
// FFT-Hist pipeline through every built-in fault profile under a host-time
// watchdog, so a regression that reintroduces a hang (a receiver that never
// learns its sender died, a collective that waits forever on a dead member)
// fails the test instead of wedging CI.
package fxpar_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/fault"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

// chaosSoakRun executes one FFT-Hist run under the plan, converting a
// processor-failure panic into its *machine.RunError. Any other panic value
// is re-raised: only typed failures are acceptable.
func chaosSoakRun(procs int, cfg ffthist.Config, mp mapping.Mapping, pl *fault.Plan) (res ffthist.Result, runErr *machine.RunError) {
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(*machine.RunError)
			if !ok {
				panic(r)
			}
			runErr = re
		}
	}()
	m := machine.New(procs, sim.Paragon())
	m.SetFaults(pl.Machine())
	res = ffthist.Run(m, cfg, mp)
	return res, nil
}

// victims returns the processors pl kills on a machine of n processors,
// with their death times.
func victims(pl *fault.Plan, n int) map[int]float64 {
	v := make(map[int]float64)
	for i := 0; i < n; i++ {
		if t, ok := pl.DeathTime(i); ok {
			v[i] = t
		}
	}
	return v
}

// TestChaosSoakP256AllProfiles: for every profile and several seeds, the run
// must finish within a generous host watchdog and either reproduce the
// healthy output exactly or fail with a RunError whose root cause is a
// planned processor death.
func TestChaosSoakP256AllProfiles(t *testing.T) {
	const procs = 256
	cfg := ffthist.Config{N: 64, Sets: 8, Bins: 64}
	if testing.Short() {
		cfg.Sets = 4
	}
	mp := mapping.Mapping{Modules: 2, Stages: []int{64, 32, 32}}
	healthy, herr := chaosSoakRun(procs, cfg, mp, nil)
	if herr != nil {
		t.Fatalf("healthy run failed: %v", herr)
	}

	seeds := []uint64{1, 7, 42}
	for _, name := range fault.ProfileNames() {
		prof, err := fault.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				pl := fault.New(seed, prof)
				type outcome struct {
					res ffthist.Result
					err *machine.RunError
				}
				done := make(chan outcome, 1)
				go func() {
					res, err := chaosSoakRun(procs, cfg, mp, pl)
					done <- outcome{res, err}
				}()
				var out outcome
				select {
				case out = <-done:
				case <-time.After(2 * time.Minute):
					// The goroutine is leaked on purpose: the test's job is
					// to report the hang, not to unwedge it.
					t.Fatalf("plan %s: run hung past the watchdog — chaos must never hang", pl)
				}

				if out.err != nil {
					if prof.KillProb == 0 {
						t.Fatalf("plan %s: non-lethal profile failed the run: %v", pl, out.err)
					}
					var death *machine.ProcDeathError
					if !errors.As(out.err, &death) {
						t.Fatalf("plan %s: failure has no ProcDeathError root: %v", pl, out.err)
					}
					planned := victims(pl, procs)
					if _, ok := planned[death.Proc]; !ok {
						t.Fatalf("plan %s: processor %d died but the plan kills %v", pl, death.Proc, planned)
					}
					continue
				}
				if v := victims(pl, procs); len(v) > 0 {
					// Victims whose death time lies beyond their last operation
					// legitimately survive; completing correctly is fine.
					t.Logf("plan %s: victims %v outlived the run", pl, v)
				}
				if !reflect.DeepEqual(out.res.Hists, healthy.Hists) {
					t.Fatalf("plan %s: run completed with corrupted output", pl)
				}
			}
		})
	}
}
