package trace

// Deterministic event sampling: the scale tier's answer to O(events) sink
// work. A Sampler implements machine.EventSampler with the same
// counter-based splitmix64 design as internal/fault's chaos plans — every
// decision is a pure hash of (seed, kind, proc, seq), with no shared
// generator state — so the set of kept events is byte-identical across
// execution engines, sweep -j levels, and hosts, and a sampled trace is as
// reproducible as an unsampled one.
//
// Rates are per event kind. Structural and diagnostic events — span
// boundaries (which metrics attribution and critical-path analysis walk),
// fault and retry markers (which are rare and are the whole point of a
// chaotic run) — are always kept regardless of the configured rate; only
// the bulk kinds (compute, send, wait, io, recv) are thinned. The sampler
// counts kept and dropped events per kind, so consumers can report scaled
// estimates (count / rate) with explicit "sampled" markers.

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync/atomic"

	"fxpar/internal/machine"
)

// numEventKinds covers machine.EvCompute..machine.EvRetry.
const numEventKinds = int(machine.EvRetry) + 1

// sampleStream decorrelates sampling decisions from every other consumer of
// the same seed (fault plans use small stream constants; this one is far
// away in the stream space).
const sampleStream uint64 = 0x5a17

// mix64 is the splitmix64 finalizer (the same chain internal/fault uses;
// re-declared here because fault sits above machine and trace must not
// import it).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// alwaysKeep reports whether a kind is exempt from sampling: span
// boundaries, fault markers and retries are kept at any rate.
func alwaysKeep(k machine.EventKind) bool {
	switch k {
	case machine.EvSpanBegin, machine.EvSpanEnd, machine.EvFault, machine.EvRetry:
		return true
	}
	return false
}

// SampleConfig configures a Sampler: a seed and one keep-rate per event
// kind in [0, 1]. Rates of always-keep kinds are forced to 1.
type SampleConfig struct {
	Seed  uint64
	Rates [numEventKinds]float64
}

// UniformSampleConfig keeps each sampleable kind with probability rate and
// everything else always.
func UniformSampleConfig(rate float64, seed uint64) SampleConfig {
	cfg := SampleConfig{Seed: seed}
	for k := 0; k < numEventKinds; k++ {
		cfg.Rates[k] = rate
	}
	return cfg
}

// ParseSampleSpec parses the -sample flag syntax:
//
//	rate[:seed][,kind=rate ...]
//
// where rate is a float in [0, 1] or a fraction "1/N", seed is an unsigned
// integer (default 1), and kind is an event-kind name (compute, send, wait,
// io, recv) overriding the base rate. Examples: "1/64", "0.1:42",
// "1/64:7,send=1". The empty spec is rejected; use a nil Sampler to disable
// sampling.
func ParseSampleSpec(spec string) (SampleConfig, error) {
	var cfg SampleConfig
	if spec == "" {
		return cfg, fmt.Errorf("trace: empty sample spec")
	}
	parts := strings.Split(spec, ",")
	base := parts[0]
	seed := uint64(1)
	if i := strings.IndexByte(base, ':'); i >= 0 {
		s, err := strconv.ParseUint(base[i+1:], 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("trace: bad sample seed %q: %v", base[i+1:], err)
		}
		seed, base = s, base[:i]
	}
	rate, err := parseRate(base)
	if err != nil {
		return cfg, err
	}
	cfg = UniformSampleConfig(rate, seed)
	for _, kv := range parts[1:] {
		i := strings.IndexByte(kv, '=')
		if i < 0 {
			return cfg, fmt.Errorf("trace: sample override %q is not kind=rate", kv)
		}
		kind, ok := kindByName(kv[:i])
		if !ok {
			return cfg, fmt.Errorf("trace: unknown event kind %q in sample spec", kv[:i])
		}
		r, err := parseRate(kv[i+1:])
		if err != nil {
			return cfg, err
		}
		cfg.Rates[kind] = r
	}
	return cfg, nil
}

// parseRate parses a keep rate, a float or a fraction "a/b", and checks
// that it lies in [0, 1] whichever form it took.
func parseRate(s string) (float64, error) {
	var r float64
	if i := strings.IndexByte(s, '/'); i >= 0 {
		num, err1 := strconv.ParseFloat(s[:i], 64)
		den, err2 := strconv.ParseFloat(s[i+1:], 64)
		if err1 != nil || err2 != nil || den <= 0 {
			return 0, fmt.Errorf("trace: bad sample fraction %q", s)
		}
		r = num / den
	} else {
		var err error
		if r, err = strconv.ParseFloat(s, 64); err != nil {
			return 0, fmt.Errorf("trace: bad sample rate %q: %v", s, err)
		}
	}
	if !(r >= 0 && r <= 1) {
		return 0, fmt.Errorf("trace: sample rate %g outside [0, 1]", r)
	}
	return r, nil
}

func kindByName(name string) (machine.EventKind, bool) {
	for k := 0; k < numEventKinds; k++ {
		if machine.EventKind(k).String() == name {
			return machine.EventKind(k), true
		}
	}
	return 0, false
}

// sampleCell holds one processor's kept/dropped counters. Each processor
// goroutine only touches its own cell, so the atomics are uncontended; they
// exist so Snapshot can read mid-run and so out-of-range procs can share
// the overflow cell.
type sampleCell struct {
	kept    [numEventKinds]atomic.Int64
	dropped [numEventKinds]atomic.Int64
}

// Sampler is a deterministic machine.EventSampler. Decisions are pure
// functions of (seed, kind, proc, seq); the per-proc counters only observe
// them. Safe for concurrent use.
type Sampler struct {
	cfg      SampleConfig
	always   [numEventKinds]bool
	thresh   [numEventKinds]uint64
	kindSeed [numEventKinds]uint64
	cells    []sampleCell
	overflow sampleCell
}

var _ machine.EventSampler = (*Sampler)(nil)

// NewSampler builds a sampler for a machine of the given processor count.
func NewSampler(procs int, cfg SampleConfig) *Sampler {
	s := &Sampler{cfg: cfg, cells: make([]sampleCell, procs)}
	root := mix64(cfg.Seed ^ 0x9e3779b97f4a7c15)
	for k := 0; k < numEventKinds; k++ {
		rate := cfg.Rates[k]
		if alwaysKeep(machine.EventKind(k)) || rate >= 1 {
			s.always[k] = true
			s.cfg.Rates[k] = 1
			continue
		}
		if rate < 0 {
			rate = 0
			s.cfg.Rates[k] = 0
		}
		// The keep test uses the hash's top 53 bits against rate*2^53 —
		// the same uniform-in-[0,1) convention as internal/fault's u01,
		// kept in integers. rate < 1 here, so the product fits.
		s.thresh[k] = uint64(rate * (1 << 53))
		s.kindSeed[k] = mix64(mix64(root^sampleStream) ^ uint64(k))
	}
	return s
}

// SampleEvent implements machine.EventSampler.
func (s *Sampler) SampleEvent(proc int, seq int64, kind machine.EventKind) bool {
	k := int(kind)
	cell := &s.overflow
	if proc >= 0 && proc < len(s.cells) {
		cell = &s.cells[proc]
	}
	if s.always[k] {
		cell.kept[k].Add(1)
		return true
	}
	h := mix64(mix64(s.kindSeed[k]^uint64(proc)) ^ uint64(seq))
	if h>>11 < s.thresh[k] {
		cell.kept[k].Add(1)
		return true
	}
	cell.dropped[k].Add(1)
	return false
}

// Rate returns the configured keep rate of a kind (1 for always-keep
// kinds); 1/Rate is the scale factor for estimating unsampled counts.
func (s *Sampler) Rate(kind machine.EventKind) float64 {
	return s.cfg.Rates[int(kind)]
}

// KindSampleStats is one kind's row in a SampleSnapshot.
type KindSampleStats struct {
	Kind    string  `json:"kind"`
	Rate    float64 `json:"rate"`
	Kept    int64   `json:"kept"`
	Dropped int64   `json:"dropped"`
}

// SampleSnapshot is a point-in-time summary of a Sampler. Kept/Dropped
// counts are deterministic — every decision is a pure hash — so snapshots
// taken after a run can be diffed exactly across engines and hosts.
type SampleSnapshot struct {
	Seed    uint64            `json:"seed"`
	Kinds   []KindSampleStats `json:"kinds"`
	Kept    int64             `json:"kept"`
	Dropped int64             `json:"dropped"`
}

// Snapshot sums the per-processor cells. Kinds with no traffic and a rate
// of 1 are elided; the remaining rows appear in kind order.
func (s *Sampler) Snapshot() SampleSnapshot {
	snap := SampleSnapshot{Seed: s.cfg.Seed}
	for k := 0; k < numEventKinds; k++ {
		var kept, dropped int64
		for i := range s.cells {
			kept += s.cells[i].kept[k].Load()
			dropped += s.cells[i].dropped[k].Load()
		}
		kept += s.overflow.kept[k].Load()
		dropped += s.overflow.dropped[k].Load()
		snap.Kept += kept
		snap.Dropped += dropped
		if kept == 0 && dropped == 0 && s.cfg.Rates[k] >= 1 {
			continue
		}
		snap.Kinds = append(snap.Kinds, KindSampleStats{
			Kind: machine.EventKind(k).String(), Rate: s.cfg.Rates[k],
			Kept: kept, Dropped: dropped,
		})
	}
	return snap
}

// Sampled reports whether any events were actually dropped.
func (sn SampleSnapshot) Sampled() bool { return sn.Dropped > 0 }

// RatesString renders the non-unity rates compactly ("compute=1/64
// send=1/64"), using fraction form when the rate is a unit fraction.
func (sn SampleSnapshot) RatesString() string {
	var parts []string
	for _, k := range sn.Kinds {
		if k.Rate >= 1 {
			continue
		}
		parts = append(parts, k.Kind+"="+FormatRate(k.Rate))
	}
	if len(parts) == 0 {
		return "unsampled"
	}
	return strings.Join(parts, " ")
}

// FormatRate renders a keep rate, preferring the "1/N" unit-fraction form.
func FormatRate(rate float64) string {
	if rate > 0 && rate <= 0.5 {
		inv := 1 / rate
		if r := math.Round(inv); math.Abs(inv-r) < 1e-9 {
			return "1/" + strconv.FormatFloat(r, 'f', -1, 64)
		}
	}
	return strconv.FormatFloat(rate, 'g', -1, 64)
}

// WriteText renders the per-kind sample table.
func (sn SampleSnapshot) WriteText(w io.Writer) {
	if !sn.Sampled() {
		fmt.Fprintln(w, "sampling: every event kept")
		return
	}
	fmt.Fprintf(w, "%-12s %8s %12s %12s %14s\n", "kind", "rate", "kept", "dropped", "total")
	for _, k := range sn.Kinds {
		fmt.Fprintf(w, "%-12s %8s %12d %12d %14d\n", k.Kind, FormatRate(k.Rate), k.Kept, k.Dropped, k.Kept+k.Dropped)
	}
	fmt.Fprintf(w, "%-12s %8s %12d %12d %14d\n", "total", "", sn.Kept, sn.Dropped, sn.Kept+sn.Dropped)
}
