// BenchmarkFaultPlanOverhead measures what the fault layer costs the host in
// its three regimes:
//
//   - nil plan: the default every simulation pays — the machine's fault hooks
//     must collapse to a nil check, so this anchors the "chaos is free when
//     off" guarantee (alloc-freedom is pinned separately in the comm tests);
//   - none profile: a plan is installed but every probability is zero, so
//     each message pays one PRNG draw and nothing fires;
//   - flaky profile: faults actually fire, events are emitted, retransmits
//     happen — the price of chaos when you ask for it.
//
// The reported none-x and flaky-x metrics are the ratios to the nil-plan
// baseline (1.0 = free).
package fxpar_test

import (
	"testing"
	"time"

	"fxpar/internal/fault"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// Workload shape: a ring neighbour exchange on ringProcs processors for
// ringIters rounds — message-heavy, so the per-message fault hooks dominate.
const (
	ringProcs = 32
	ringIters = 100
)

// timeRuns reports the best-of-3 average host time per run of fn.
func timeRuns(runs int, fn func()) float64 {
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		start := time.Now()
		for i := 0; i < runs; i++ {
			fn()
		}
		per := time.Since(start).Seconds() / float64(runs)
		if attempt == 0 || per < best {
			best = per
		}
	}
	return best
}

// faultBenchRun executes the neighbour-exchange workload under the given
// fault plan and returns its makespan.
func faultBenchRun(fp machine.FaultPlan) float64 {
	m := machine.New(ringProcs, sim.Paragon())
	m.SetFaults(fp)
	st := m.Run(func(p *machine.Proc) {
		r := p.ID()
		for it := 0; it < ringIters; it++ {
			p.Compute(1e3)
			p.Send((r+1)%ringProcs, it, 8)
			p.Recv((r + ringProcs - 1) % ringProcs)
		}
	})
	return st.MakespanTime()
}

func BenchmarkFaultPlanOverhead(b *testing.B) {
	runs := b.N
	if runs < 5 {
		runs = 5
	}
	mustProfile := func(name string) fault.Profile {
		p, err := fault.ProfileByName(name)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}

	nilSec := timeRuns(runs, func() { faultBenchRun(nil) })

	nonePlan := fault.New(1, mustProfile("none"))
	noneSec := timeRuns(runs, func() {
		if faultBenchRun(nonePlan.Machine()) != faultBenchRun(nil) {
			b.Fatal("a none-profile plan changed virtual time")
		}
	})
	// The comparison run above doubles the work; halve for a fair ratio.
	noneSec /= 2

	flakyPlan := fault.New(1, mustProfile("flaky"))
	flakySec := timeRuns(runs, func() { faultBenchRun(flakyPlan.Machine()) })

	b.ReportMetric(noneSec/nilSec, "none-x")
	b.ReportMetric(flakySec/nilSec, "flaky-x")
}
