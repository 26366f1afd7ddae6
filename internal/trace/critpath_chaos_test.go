package trace

// Regression coverage for critical-path analysis on faulted runs: the
// injected EvFault/EvRetry markers are zero-duration, so for a
// long time they silently fell through the duration gate — a chaotic run's
// path showed the time but not the cause. The markers must now be counted,
// attributed to the right span, and surfaced in the report.

import (
	"bytes"
	"strings"
	"testing"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/fault"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

func chaosTrace(t *testing.T, seed uint64) *CriticalPath {
	t.Helper()
	prof, err := fault.ProfileByName("flaky")
	if err != nil {
		t.Fatal(err)
	}
	col := &Collector{}
	m := machine.New(16, sim.Paragon())
	m.SetTracer(col)
	m.SetFaults(fault.New(seed, prof))
	ffthist.Run(m, ffthist.Config{N: 32, Sets: 8, Bins: 16},
		mapping.Mapping{Modules: 1, Stages: []int{8, 4, 4}})
	return ComputeCriticalPath(col.Events())
}

func TestCriticalPathAttributesFaultMarkers(t *testing.T) {
	// Fault markers land on the critical path only when the injected
	// perturbation is what binds the makespan; scan a few seeds for a run
	// where that happens (deterministically — same seed, same trace).
	var cp *CriticalPath
	for seed := uint64(1); seed <= 16; seed++ {
		c := chaosTrace(t, seed)
		if c.Faults+c.Retries > 0 {
			cp = c
			break
		}
	}
	if cp == nil {
		t.Fatal("no seed in 1..16 put a fault marker on the critical path — chaos plan exercises nothing")
	}

	// Per-span counts must decompose the totals exactly.
	var f, r int
	for _, st := range cp.BySpan {
		f += st.Faults
		r += st.Retries
	}
	if f != cp.Faults || r != cp.Retries {
		t.Errorf("per-span fault counts (%d,%d) do not decompose totals (%d,%d)",
			f, r, cp.Faults, cp.Retries)
	}

	var buf bytes.Buffer
	cp.WriteReport(&buf)
	out := buf.String()
	if !strings.Contains(out, "faults on path:") {
		t.Errorf("chaotic report missing fault summary line:\n%s", out)
	}
	if !strings.Contains(out, "retries]") {
		t.Errorf("chaotic report missing per-span fault annotation:\n%s", out)
	}
}

// TestCriticalPathHealthyReportUnchanged: on a fault-free run the counters
// are zero and the report contains no fault lines — the format is
// byte-compatible with pre-counter reports.
func TestCriticalPathHealthyReportUnchanged(t *testing.T) {
	col := &Collector{}
	m := machine.New(16, sim.Paragon())
	m.SetTracer(col)
	ffthist.Run(m, ffthist.Config{N: 32, Sets: 8, Bins: 16},
		mapping.Mapping{Modules: 1, Stages: []int{8, 4, 4}})
	cp := ComputeCriticalPath(col.Events())
	if cp.Faults != 0 || cp.Retries != 0 {
		t.Fatalf("healthy run counted fault markers: %d/%d", cp.Faults, cp.Retries)
	}
	var buf bytes.Buffer
	cp.WriteReport(&buf)
	if strings.Contains(buf.String(), "faults on path:") || strings.Contains(buf.String(), "retries]") {
		t.Errorf("healthy report grew fault annotations:\n%s", buf.String())
	}
}
