// Package fault implements deterministic chaos plans for the simulated
// machine: seeded, repeatable decisions about which messages are delayed,
// duplicated, or dropped-and-retransmitted, and which processors run slow
// or die at a virtual time.
//
// Determinism is the whole design. Decisions come from a counter-based
// (stateless) PRNG: every decision hashes (seed, stream, key...) through a
// splitmix64 chain, where the key is the pair (src, dst) and the per-pair
// message sequence number for message faults, or the processor id for
// slowdown/death. There is no shared generator state, no math/rand, and no
// dependence on the order in which processors consult the plan — so the
// same (seed, profile) produces byte-identical perturbations under every
// execution engine, any sweep -j level, and any host.
//
// Faults model a reliable transport (see internal/machine): "drop" means
// bounded retransmission with exponential backoff — extra latency, never
// loss — and duplicates are filtered at the receiver. Chaos without kill
// therefore never changes program output, only timing; kill surfaces as
// typed errors, never hangs.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"fxpar/internal/machine"
)

// Profile is a named set of fault probabilities and magnitudes. The zero
// value injects nothing.
type Profile struct {
	Name string

	// DelayProb is the per-message probability of extra latency, uniform in
	// [0, DelayMax) virtual seconds.
	DelayProb, DelayMax float64

	// DropProb is the per-transmission-attempt probability that the
	// reliable transport must retransmit; each retry costs a backoff that
	// starts at DropBackoff and doubles, with at most MaxRetries attempts
	// (then the message is forced through — links degrade, never sever).
	DropProb, DropBackoff float64
	MaxRetries            int

	// DupProb is the per-message probability of a transport-level
	// duplicate, discarded at the receiver.
	DupProb float64

	// SlowProb is the per-processor probability of a compute slowdown, by a
	// factor uniform in [1, SlowMax).
	SlowProb, SlowMax float64

	// KillProb is the per-processor probability of death, at a virtual time
	// uniform in [KillFrom, KillUntil).
	KillProb, KillFrom, KillUntil float64
}

// The built-in profiles. Magnitudes are sized for the Paragon-like cost
// models used by the experiments (alpha ~120us, app makespans of
// milliseconds to seconds).
var profiles = []Profile{
	{Name: "none"},
	{Name: "jitter", DelayProb: 1, DelayMax: 200e-6},
	{Name: "delay", DelayProb: 0.2, DelayMax: 2e-3},
	{Name: "dup", DupProb: 0.05},
	{Name: "drop", DropProb: 0.05, DropBackoff: 1e-3, MaxRetries: 5},
	{Name: "slow", SlowProb: 0.1, SlowMax: 4},
	{Name: "kill", KillProb: 0.05, KillFrom: 1e-3, KillUntil: 500e-3},
	{Name: "flaky",
		DelayProb: 0.1, DelayMax: 2e-3,
		DropProb: 0.02, DropBackoff: 1e-3, MaxRetries: 5,
		DupProb:  0.02,
		SlowProb: 0.05, SlowMax: 3},
	{Name: "havoc",
		DelayProb: 0.1, DelayMax: 2e-3,
		DropProb: 0.02, DropBackoff: 1e-3, MaxRetries: 5,
		DupProb:  0.02,
		SlowProb: 0.05, SlowMax: 3,
		KillProb: 0.05, KillFrom: 1e-3, KillUntil: 500e-3},
}

// DefaultProfile is the profile used when a chaos spec names none: every
// non-lethal fault class at once.
const DefaultProfile = "flaky"

// ProfileNames returns the accepted profile names, for flag help text.
func ProfileNames() []string {
	names := make([]string, len(profiles))
	for i, pr := range profiles {
		names[i] = pr.Name
	}
	return names
}

// ProfileByName resolves a profile name.
func ProfileByName(name string) (Profile, error) {
	for _, pr := range profiles {
		if pr.Name == name {
			return pr, nil
		}
	}
	return Profile{}, fmt.Errorf("fault: unknown profile %q (have: %s)", name, strings.Join(ProfileNames(), ", "))
}

// Plan is a deterministic chaos plan: a seed plus a profile. It implements
// machine.FaultPlan and is safe for concurrent use (it is immutable).
type Plan struct {
	Seed uint64
	Prof Profile
}

// New creates a plan from a seed and a profile.
func New(seed uint64, prof Profile) *Plan { return &Plan{Seed: seed, Prof: prof} }

// Parse resolves a -chaos flag value of the form "seed[:profile]", e.g.
// "42" (default profile) or "42:havoc". An empty spec yields a nil plan —
// chaos off — so call sites can thread the flag without checking.
func Parse(spec string) (*Plan, error) {
	if spec == "" {
		return nil, nil
	}
	seedStr, profName, has := strings.Cut(spec, ":")
	if !has {
		profName = DefaultProfile
	}
	seed, err := strconv.ParseUint(seedStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("fault: bad chaos seed in %q (want seed[:profile])", spec)
	}
	prof, err := ProfileByName(profName)
	if err != nil {
		return nil, err
	}
	return New(seed, prof), nil
}

// String renders the plan in Parse's format.
func (pl *Plan) String() string {
	return fmt.Sprintf("%d:%s", pl.Seed, pl.Prof.Name)
}

// Machine returns the plan as a machine.FaultPlan, mapping nil to nil so a
// possibly-absent plan threads through config structs without checks.
func (pl *Plan) Machine() machine.FaultPlan {
	if pl == nil {
		return nil
	}
	return pl
}

// Decision streams: distinct constants hashed into the PRNG so the same
// key can feed several independent decisions.
const (
	sDelay uint64 = iota + 1
	sDelayAmt
	sDrop
	sDup
	sSlow
	sSlowAmt
	sKill
	sKillAt
	sSeeds
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rnd hashes (seed, stream, a, b, c) to a uniform uint64.
func (pl *Plan) rnd(stream, a, b, c uint64) uint64 {
	h := mix64(pl.Seed ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ stream)
	h = mix64(h ^ a)
	h = mix64(h ^ b)
	h = mix64(h ^ c)
	return h
}

// u01 maps rnd to [0, 1) with 53-bit resolution.
func (pl *Plan) u01(stream, a, b, c uint64) float64 {
	return float64(pl.rnd(stream, a, b, c)>>11) / (1 << 53)
}

// MessageFault implements machine.FaultPlan: the perturbation of the seq-th
// message from src to dst.
func (pl *Plan) MessageFault(src, dst int, seq int64) machine.MessageFault {
	var mf machine.MessageFault
	pr := &pl.Prof
	s, d, q := uint64(src), uint64(dst), uint64(seq)
	if pr.DelayProb > 0 && pl.u01(sDelay, s, d, q) < pr.DelayProb {
		mf.Delay += pl.u01(sDelayAmt, s, d, q) * pr.DelayMax
	}
	if pr.DropProb > 0 {
		backoff := pr.DropBackoff
		for k := 0; k < pr.MaxRetries; k++ {
			// One decision per transmission attempt: attempt k is dropped
			// with DropProb, costing a doubling backoff before the resend.
			if pl.u01(sDrop^(uint64(k+1)<<32), s, d, q) >= pr.DropProb {
				break
			}
			mf.Retries++
			mf.Delay += backoff
			backoff *= 2
		}
	}
	if pr.DupProb > 0 && pl.u01(sDup, s, d, q) < pr.DupProb {
		mf.Duplicate = true
	}
	return mf
}

// SlowFactor returns the processor's compute-slowdown multiplier (1 when
// the plan leaves it healthy).
func (pl *Plan) SlowFactor(proc int) float64 {
	pr := &pl.Prof
	if pr.SlowProb <= 0 || pl.u01(sSlow, uint64(proc), 0, 0) >= pr.SlowProb {
		return 1
	}
	return 1 + pl.u01(sSlowAmt, uint64(proc), 0, 0)*(pr.SlowMax-1)
}

// DeathTime returns the virtual time at which the plan kills the processor,
// if it does.
func (pl *Plan) DeathTime(proc int) (float64, bool) {
	pr := &pl.Prof
	if pr.KillProb <= 0 || pl.u01(sKill, uint64(proc), 0, 0) >= pr.KillProb {
		return 0, false
	}
	return pr.KillFrom + pl.u01(sKillAt, uint64(proc), 0, 0)*(pr.KillUntil-pr.KillFrom), true
}

// ProcFaults implements machine.FaultPlan: it visits exactly the processors
// SlowFactor or DeathTime afflicts, with their draws. Delay/dup/drop
// profiles touch neither class, so Run's fault pre-scan is then O(1).
func (pl *Plan) ProcFaults(n int, visit func(proc int, slow, deathAt float64)) {
	pr := &pl.Prof
	if pr.SlowProb <= 0 && pr.KillProb <= 0 {
		return
	}
	for i := 0; i < n; i++ {
		slow := pl.SlowFactor(i)
		death, killed := pl.DeathTime(i)
		if slow > 1 || killed {
			visit(i, slow, death)
		}
	}
}

// Seeds derives n decorrelated campaign seeds from a base seed, so a chaos
// sweep can fan one scenario across seeds without hand-picking them.
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = mix64(base ^ mix64(sSeeds^uint64(i+1)))
	}
	return out
}
