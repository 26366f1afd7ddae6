package fault

import (
	"reflect"
	"testing"
)

// Lethal reports whether the profile can kill processors — the only class
// of fault that can make a run fail rather than just run slower.
func (pr Profile) Lethal() bool { return pr.KillProb > 0 }

// Victims returns the processors the plan kills on a machine of n
// processors, with their death times.
func (pl *Plan) Victims(n int) map[int]float64 {
	v := make(map[int]float64)
	for i := 0; i < n; i++ {
		if t, ok := pl.DeathTime(i); ok {
			v[i] = t
		}
	}
	return v
}

// TestDeterminism: a plan is a pure function of (seed, key) — two plans
// with the same seed agree on every decision, different seeds disagree on
// at least some.
func TestDeterminism(t *testing.T) {
	prof, _ := ProfileByName("havoc")
	a, b := New(42, prof), New(42, prof)
	diff := New(43, prof)
	sawDifference := false
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			for seq := int64(0); seq < 32; seq++ {
				ma, mb := a.MessageFault(src, dst, seq), b.MessageFault(src, dst, seq)
				if ma != mb {
					t.Fatalf("same seed diverges at (%d,%d,%d): %+v vs %+v", src, dst, seq, ma, mb)
				}
				if ma != diff.MessageFault(src, dst, seq) {
					sawDifference = true
				}
			}
		}
	}
	if !sawDifference {
		t.Error("seeds 42 and 43 produced identical message faults everywhere")
	}
	for p := 0; p < 64; p++ {
		if a.SlowFactor(p) != b.SlowFactor(p) {
			t.Fatalf("SlowFactor(%d) nondeterministic", p)
		}
		ta, oka := a.DeathTime(p)
		tb, okb := b.DeathTime(p)
		if ta != tb || oka != okb {
			t.Fatalf("DeathTime(%d) nondeterministic", p)
		}
	}
}

// TestDecisionsAreOrderIndependent: consulting the plan in any order, or
// repeatedly, never changes an answer (counter-based PRNG, no hidden
// state).
func TestDecisionsAreOrderIndependent(t *testing.T) {
	prof, _ := ProfileByName("flaky")
	pl := New(7, prof)
	want := pl.MessageFault(3, 5, 11)
	for i := 0; i < 100; i++ {
		pl.MessageFault(i%4, i%6, int64(i)) // interleave other queries
		if got := pl.MessageFault(3, 5, 11); got != want {
			t.Fatalf("answer changed after interleaved queries: %+v vs %+v", got, want)
		}
	}
}

// TestProfileRates: sanity-check that probabilities roughly materialize
// over a large sample (loose bounds — this guards against inverted
// comparisons, not distribution quality).
func TestProfileRates(t *testing.T) {
	prof, _ := ProfileByName("havoc")
	pl := New(1234, prof)
	delays, dups, retries := 0, 0, 0
	const n = 20000
	for seq := int64(0); seq < n; seq++ {
		mf := pl.MessageFault(1, 2, seq)
		if mf.Delay > 0 {
			delays++
		}
		if mf.Duplicate {
			dups++
		}
		retries += mf.Retries
		if mf.Retries > prof.MaxRetries {
			t.Fatalf("retries %d exceed cap %d", mf.Retries, prof.MaxRetries)
		}
	}
	// DelayProb 0.1 plus retransmission backoff; expect >= ~8% and <= ~20%.
	if delays < n/13 || delays > n/5 {
		t.Errorf("delayed %d/%d messages, want around 10-12%%", delays, n)
	}
	if dups < n/100 || dups > n/25 {
		t.Errorf("duplicated %d/%d messages, want around 2%%", dups, n)
	}
	if retries == 0 {
		t.Error("drop profile produced no retransmissions")
	}
	slowed, killed := 0, 0
	const procs = 4000
	for p := 0; p < procs; p++ {
		if pl.SlowFactor(p) > 1 {
			slowed++
		}
		if at, ok := pl.DeathTime(p); ok {
			killed++
			if at < prof.KillFrom || at >= prof.KillUntil {
				t.Fatalf("death time %g outside [%g, %g)", at, prof.KillFrom, prof.KillUntil)
			}
		}
	}
	if slowed == 0 || killed == 0 {
		t.Errorf("slowed=%d killed=%d over %d procs, want both > 0", slowed, killed, procs)
	}
}

// TestNoneProfileIsInert: the "none" profile never perturbs anything.
func TestNoneProfileIsInert(t *testing.T) {
	prof, _ := ProfileByName("none")
	pl := New(99, prof)
	for seq := int64(0); seq < 1000; seq++ {
		if mf := pl.MessageFault(0, 1, seq); mf.Delay != 0 || mf.Retries != 0 || mf.Duplicate {
			t.Fatalf("none profile produced %+v", mf)
		}
	}
	for p := 0; p < 100; p++ {
		if pl.SlowFactor(p) != 1 {
			t.Fatalf("none profile slows processor %d", p)
		}
		if _, ok := pl.DeathTime(p); ok {
			t.Fatalf("none profile kills processor %d", p)
		}
	}
	if prof.Lethal() {
		t.Error("none profile reports Lethal")
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in      string
		seed    uint64
		profile string
		nilPlan bool
		err     bool
	}{
		{in: "", nilPlan: true},
		{in: "42", seed: 42, profile: DefaultProfile},
		{in: "42:havoc", seed: 42, profile: "havoc"},
		{in: "0:none", seed: 0, profile: "none"},
		{in: "x", err: true},
		{in: "42:bogus", err: true},
		{in: ":havoc", err: true},
	}
	for _, c := range cases {
		pl, err := Parse(c.in)
		if c.err {
			if err == nil {
				t.Errorf("Parse(%q): want error, got %v", c.in, pl)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if c.nilPlan {
			if pl != nil {
				t.Errorf("Parse(%q) = %v, want nil plan", c.in, pl)
			}
			if pl.Machine() != nil {
				t.Errorf("nil plan should thread to a nil machine.FaultPlan")
			}
			continue
		}
		if pl.Seed != c.seed || pl.Prof.Name != c.profile {
			t.Errorf("Parse(%q) = seed %d profile %q, want %d %q", c.in, pl.Seed, pl.Prof.Name, c.seed, c.profile)
		}
		if pl.Machine() == nil {
			t.Errorf("Parse(%q).Machine() = nil for a non-nil plan", c.in)
		}
		// Round trip through String.
		back, err := Parse(pl.String())
		if err != nil || back.Seed != pl.Seed || back.Prof.Name != pl.Prof.Name {
			t.Errorf("Parse(String()) round trip failed for %q: %v %v", c.in, back, err)
		}
	}
}

func TestProfileLookup(t *testing.T) {
	for _, name := range ProfileNames() {
		pr, err := ProfileByName(name)
		if err != nil || pr.Name != name {
			t.Errorf("ProfileByName(%q) = %+v, %v", name, pr, err)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("ProfileByName(nope) should fail")
	}
	if _, err := ProfileByName(DefaultProfile); err != nil {
		t.Errorf("default profile %q unknown: %v", DefaultProfile, err)
	}
}

// TestSeeds: derived campaign seeds are deterministic and distinct.
func TestSeeds(t *testing.T) {
	a, b := Seeds(5, 16), Seeds(5, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Seeds not deterministic")
	}
	seen := make(map[uint64]bool)
	for _, s := range a {
		if seen[s] {
			t.Fatalf("duplicate derived seed %d", s)
		}
		seen[s] = true
	}
	if reflect.DeepEqual(Seeds(5, 4), Seeds(6, 4)) {
		t.Error("different base seeds derive identical seed lists")
	}
}

// TestVictims matches DeathTime over the id range.
func TestVictims(t *testing.T) {
	prof, _ := ProfileByName("kill")
	pl := New(31, prof)
	v := pl.Victims(2000)
	if len(v) == 0 {
		t.Fatal("kill profile found no victims in 2000 processors")
	}
	for id, at := range v {
		got, ok := pl.DeathTime(id)
		if !ok || got != at {
			t.Fatalf("Victims disagrees with DeathTime for %d", id)
		}
	}
}

// FuzzFaultParse: no -chaos spec makes Parse panic, and an accepted plan
// re-parses from its String() to the same String() — the canonical form
// /measure keys chaotic runs on.
func FuzzFaultParse(f *testing.F) {
	for _, seed := range []string{"", "7", "7:flaky", "42:havoc", "007:kill", "0:none", ":", "7:", ":havoc", "x", "-1", "+7", "18446744073709551616", "7:havoc:extra"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pl, err := Parse(spec)
		if err != nil || pl == nil {
			return
		}
		again, err := Parse(pl.String())
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its String() %q is rejected: %v", spec, pl.String(), err)
		}
		if again.String() != pl.String() {
			t.Fatalf("Parse(%q).String() = %q, which re-parses to %q", spec, pl.String(), again.String())
		}
	})
}
