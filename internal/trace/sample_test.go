package trace

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

func sampleTestCost() sim.CostModel {
	return sim.CostModel{FlopRate: 1e6, Alpha: 100e-6, Beta: 1e-8, SendOverhead: 10e-6, IORate: 1e8}
}

// ringRun drives a traced ring-exchange program and returns the sorted
// event stream plus the sampler's snapshot.
func ringRun(t *testing.T, eng machine.Engine, s *Sampler, procs, rounds int) ([]machine.Event, SampleSnapshot) {
	t.Helper()
	m := machine.New(procs, sampleTestCost())
	m.SetEngine(eng)
	col := &Collector{}
	m.SetTracer(col)
	m.SetSampler(s)
	m.Run(func(p *machine.Proc) {
		n := p.Machine().N()
		p.BeginSpan("ring")
		for r := 0; r < rounds; r++ {
			p.Compute(float64(50 * (p.ID()%7 + 1)))
			p.Send((p.ID()+1)%n, p.ID(), 128)
			p.Recv((p.ID() + n - 1) % n)
		}
		p.EndSpan()
	})
	return col.Events(), s.Snapshot()
}

// TestSamplerDeterministicAcrossEnginesAndInstances: the kept event set and
// the per-kind kept/dropped counts are pure functions of (seed, rates,
// event identities) — byte-identical across engines and across fresh
// sampler instances.
func TestSamplerDeterministicAcrossEnginesAndInstances(t *testing.T) {
	cfg := UniformSampleConfig(0.25, 42)
	const procs, rounds = 16, 20
	evG, snapG := ringRun(t, machine.Goroutine(), NewSampler(procs, cfg), procs, rounds)
	evC, snapC := ringRun(t, machine.Coop(4), NewSampler(procs, cfg), procs, rounds)
	if !reflect.DeepEqual(evG, evC) {
		t.Fatalf("sampled event streams differ across engines: %d vs %d events", len(evG), len(evC))
	}
	if !reflect.DeepEqual(snapG, snapC) {
		t.Fatalf("sample snapshots differ across engines:\n%+v\n%+v", snapG, snapC)
	}
	if snapG.Dropped == 0 || snapG.Kept == 0 {
		t.Fatalf("expected both kept and dropped events, got %+v", snapG)
	}
	// A different seed keeps a different subset.
	evSeed, _ := ringRun(t, machine.Goroutine(), NewSampler(procs, UniformSampleConfig(0.25, 43)), procs, rounds)
	if reflect.DeepEqual(evG, evSeed) {
		t.Errorf("different seeds kept identical event sets")
	}
}

// TestSamplerAlwaysKeepsStructuralEvents: span boundaries survive any rate,
// and the exact total (kept + dropped) matches the unsampled event count.
func TestSamplerAlwaysKeepsStructuralEvents(t *testing.T) {
	const procs, rounds = 8, 10
	full, _ := ringRun(t, machine.Goroutine(), NewSampler(procs, UniformSampleConfig(1, 1)), procs, rounds)
	s := NewSampler(procs, UniformSampleConfig(0, 1))
	sampled, snap := ringRun(t, machine.Goroutine(), s, procs, rounds)
	var spans int
	for _, e := range sampled {
		switch e.Kind {
		case machine.EvSpanBegin, machine.EvSpanEnd:
			spans++
		default:
			t.Fatalf("rate-0 sampler kept bulk event %+v", e)
		}
	}
	if spans != 2*procs {
		t.Errorf("kept %d span events, want %d", spans, 2*procs)
	}
	if got, want := snap.Kept+snap.Dropped, int64(len(full)); got != want {
		t.Errorf("kept+dropped = %d, want the unsampled event count %d", got, want)
	}
	if s.Rate(machine.EvSpanBegin) != 1 || s.Rate(machine.EvCompute) != 0 {
		t.Errorf("rates = span %g compute %g, want 1 and 0",
			s.Rate(machine.EvSpanBegin), s.Rate(machine.EvCompute))
	}
}

// TestSamplerRateIsRespected: at rate 1/16 the kept fraction of bulk events
// lands near 1/16 (the hash is uniform; the tolerance is generous).
func TestSamplerRateIsRespected(t *testing.T) {
	s := NewSampler(64, UniformSampleConfig(1.0/16, 7))
	kept := 0
	const total = 200000
	for i := 0; i < total; i++ {
		if s.SampleEvent(i%64, int64(i/64+1), machine.EvCompute) {
			kept++
		}
	}
	frac := float64(kept) / total
	if frac < 0.05 || frac > 0.08 {
		t.Errorf("kept fraction %.4f, want ~0.0625", frac)
	}
	snap := s.Snapshot()
	if snap.Kept != int64(kept) || snap.Dropped != int64(total-kept) {
		t.Errorf("snapshot kept/dropped = %d/%d, counted %d/%d", snap.Kept, snap.Dropped, kept, total-kept)
	}
}

func TestParseSampleSpec(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr bool
		check   func(SampleConfig) bool
	}{
		{"1/64", false, func(c SampleConfig) bool {
			return c.Rates[machine.EvCompute] == 1.0/64 && c.Seed == 1
		}},
		{"0.1:42", false, func(c SampleConfig) bool {
			return c.Rates[machine.EvSend] == 0.1 && c.Seed == 42
		}},
		{"1/64:7,send=1", false, func(c SampleConfig) bool {
			return c.Rates[machine.EvSend] == 1 && c.Rates[machine.EvCompute] == 1.0/64 && c.Seed == 7
		}},
		{"1/64,recv=1/8", false, func(c SampleConfig) bool {
			return c.Rates[machine.EvRecv] == 1.0/8
		}},
		{"", true, nil},
		{"2", true, nil},
		{"-0.5", true, nil},
		{"1/64,bogus=1", true, nil},
		{"1/64,send", true, nil},
		{"1/64:notanum", true, nil},
	}
	for _, c := range cases {
		cfg, err := ParseSampleSpec(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseSampleSpec(%q) succeeded, want error", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSampleSpec(%q): %v", c.spec, err)
			continue
		}
		if !c.check(cfg) {
			t.Errorf("ParseSampleSpec(%q) = %+v fails its check", c.spec, cfg)
		}
	}
}

// FuzzParseSampleSpec: no spec panics the parser, and every spec it accepts
// yields rates that are finite and in [0, 1]. The seeds are fractions the
// parser once let through with rates of NaN, +Inf, 2 and -0.5.
func FuzzParseSampleSpec(f *testing.F) {
	for _, s := range []string{"NaN/1", "Inf/2", "2/1", "-1/2", "1/64:7,send=1", "0.1,recv=1/8"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSampleSpec(spec)
		if err != nil {
			return
		}
		for k, r := range cfg.Rates {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("ParseSampleSpec(%q) accepted kind %d rate %v", spec, k, r)
			}
		}
	})
}

func TestSampleSnapshotRendering(t *testing.T) {
	s := NewSampler(4, UniformSampleConfig(0.5, 3))
	for i := 1; i <= 100; i++ {
		s.SampleEvent(0, int64(i), machine.EvCompute)
		s.SampleEvent(1, int64(i), machine.EvSpanBegin)
	}
	snap := s.Snapshot()
	if !snap.Sampled() {
		t.Fatalf("snapshot with drops reports unsampled")
	}
	if got := snap.RatesString(); !strings.Contains(got, "compute=1/2") {
		t.Errorf("RatesString() = %q, want compute=1/2", got)
	}
	var buf bytes.Buffer
	snap.WriteText(&buf)
	if !strings.Contains(buf.String(), "compute") || !strings.Contains(buf.String(), "total") {
		t.Errorf("WriteText output missing rows:\n%s", buf.String())
	}
	if FormatRate(1.0/64) != "1/64" || FormatRate(0.3) != "0.3" {
		t.Errorf("FormatRate = %q / %q", FormatRate(1.0/64), FormatRate(0.3))
	}
}

// TestCommMatrixMemoryGuardP4096 is the satellite guard: a 4096-processor
// matrix with a bounded set of active pairs must stay within a few MB of
// allocation. A dense per-shard array (2*4096 cells per recording shard)
// would allocate >100MB here and trip the bound.
func TestCommMatrixMemoryGuardP4096(t *testing.T) {
	const procs = 4096
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewCommMatrix(procs)
	for p := 0; p < procs; p += 4 { // 1024 active procs, 2 pairs each
		m.Record(machine.Event{Proc: p, Kind: machine.EvSend, Peer: (p + 1) % procs, Bytes: 64})
		m.Record(machine.Event{Proc: p, Kind: machine.EvRecv, Peer: (p + procs - 1) % procs, Bytes: 64})
	}
	runtime.ReadMemStats(&after)
	delta := after.TotalAlloc - before.TotalAlloc
	if delta > 8<<20 {
		t.Fatalf("P=4096 comm matrix allocated %d bytes, want < 8MB (dense O(P^2) state returned?)", delta)
	}
	if edges := m.Snapshot(); len(edges) == 0 {
		t.Fatalf("matrix recorded nothing")
	}
}

func TestTopCommEdges(t *testing.T) {
	edges := []CommEdge{
		{Src: 0, Dst: 1, BytesSent: 100},
		{Src: 2, Dst: 3, BytesSent: 500},
		{Src: 1, Dst: 0, BytesSent: 300, BytesRecvd: 300},
		{Src: 4, Dst: 5, BytesSent: 300, BytesRecvd: 300},
	}
	top := TopCommEdges(edges, 2)
	if len(top) != 2 || top[0].BytesSent != 300 || top[0].Src != 1 {
		t.Fatalf("TopCommEdges(2) = %+v", top)
	}
	if got := TopCommEdges(edges, 0); len(got) != len(edges) {
		t.Errorf("TopCommEdges(0) truncated to %d", len(got))
	}
	// Ties break by (src, dst): (1,0) before (4,5).
	if top[0].Src != 1 || top[1].Src != 4 {
		t.Errorf("tie-break order wrong: %+v", top)
	}
}
