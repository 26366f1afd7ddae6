package fault

import "testing"

// Profiles returns the built-in profiles in definition order.
func Profiles() []Profile { return append([]Profile(nil), profiles...) }

// TestProcFaultsMatchesProbes: for every built-in profile, ProcFaults must
// visit exactly the processors SlowFactor or DeathTime afflicts, with the
// same draws.
func TestProcFaultsMatchesProbes(t *testing.T) {
	const n = 512
	type pf struct{ slow, death float64 }
	for _, prof := range Profiles() {
		pl := New(77, prof)

		want := map[int]pf{}
		for i := 0; i < n; i++ {
			var e pf
			if s := pl.SlowFactor(i); s > 1 {
				e.slow = s
			}
			if at, ok := pl.DeathTime(i); ok {
				e.death = at
			}
			if e != (pf{}) {
				want[i] = e
			}
		}

		got := map[int]pf{}
		pl.ProcFaults(n, func(proc int, slow, death float64) {
			if _, dup := got[proc]; dup {
				t.Fatalf("%s: processor %d visited twice", prof.Name, proc)
			}
			var e pf
			if slow > 1 {
				e.slow = slow
			}
			if death > 0 {
				e.death = death
			}
			if e == (pf{}) {
				t.Fatalf("%s: processor %d visited with no fault (slow %g, death %g)", prof.Name, proc, slow, death)
			}
			got[proc] = e
		})

		if len(got) != len(want) {
			t.Fatalf("%s: lister visited %d processors, probe loop records %d", prof.Name, len(got), len(want))
		}
		for proc, w := range want {
			if got[proc] != w {
				t.Fatalf("%s: processor %d: lister %+v, probes %+v", prof.Name, proc, got[proc], w)
			}
		}

		// Message-only profiles must make the pre-scan O(1): no victims, and
		// (by the early return) no per-processor draws at all.
		if prof.SlowProb <= 0 && prof.KillProb <= 0 && len(got) != 0 {
			t.Fatalf("%s: profile touches neither processor fault class but visited %d", prof.Name, len(got))
		}
	}
}
