package sweep

// Chaos campaigns: fan one simulation scenario across N decorrelated fault
// seeds and aggregate survival and latency-degradation statistics. The
// scenario function runs under one fault.Plan per seed; because both the
// fault decisions and the simulator's virtual times are deterministic, the
// whole report — makespans, error strings, survival counts — is a pure
// function of (scenario, profile, base seed, N), identical for every worker
// count, engine, and host. That makes a chaos report a committable golden
// (internal/experiments/testdata/chaos.golden.json) compared exactly.

import (
	"fmt"
	"io"

	"fxpar/internal/fault"
)

// ChaosOutcome is one seed's result in a chaos campaign.
type ChaosOutcome struct {
	Seed uint64
	// Makespan is the surviving run's virtual makespan (0 on failure).
	Makespan float64 `json:",omitempty"`
	// Error is the typed failure rendered as text ("" = survived). Runs
	// never hang: a lethal fault surfaces as a machine.RunError naming the
	// root death, and an output mismatch as a verification error.
	Error string `json:",omitempty"`
}

// ChaosReport aggregates one chaos campaign.
type ChaosReport struct {
	Name     string
	Profile  string
	BaseSeed uint64
	Seeds    int
	Survived int // completed with verified-correct output
	Failed   int // typed error (processor death cascade or bad output)
	// Baseline is the healthy (fault-free) makespan of the same scenario in
	// virtual seconds; degradation percentages are relative to it.
	Baseline float64
	// Survivor makespan statistics (virtual seconds); zero when nothing
	// survived.
	MinMakespan  float64
	MeanMakespan float64
	MaxMakespan  float64
	// Latency degradation of the surviving runs vs Baseline, in percent.
	MeanDegradationPct float64
	MaxDegradationPct  float64
	Outcomes           []ChaosOutcome
}

// ChaosCampaign runs the scenario once per seed derived from base (see
// fault.Seeds), each under a fresh Plan with the given profile, fanning out
// over at most workers host threads (MapNamed semantics: <= 0 means
// GOMAXPROCS, and an active campaign monitor sees the runs under name).
//
// run executes the scenario under the plan and returns its virtual makespan;
// it reports failure by returning an error or panicking (a processor-death
// *machine.RunError propagates as a panic and is captured per job). baseline
// is the scenario's healthy makespan, measured by the caller without a plan.
func ChaosCampaign(name string, workers int, prof fault.Profile, base uint64, n int,
	baseline float64, run func(*fault.Plan) (float64, error)) ChaosReport {
	seeds := fault.Seeds(base, n)
	res := MapNamed(name, workers, n, func(i int) (float64, error) {
		return run(fault.New(seeds[i], prof))
	})

	rep := ChaosReport{
		Name: name, Profile: prof.Name, BaseSeed: base, Seeds: n,
		Baseline: baseline, Outcomes: make([]ChaosOutcome, n),
	}
	sum := 0.0
	for i, r := range res {
		out := &rep.Outcomes[i]
		out.Seed = seeds[i]
		if r.Err != nil {
			out.Error = r.Err.Error()
			rep.Failed++
			continue
		}
		out.Makespan = r.Value
		if rep.Survived == 0 || out.Makespan < rep.MinMakespan {
			rep.MinMakespan = out.Makespan
		}
		if out.Makespan > rep.MaxMakespan {
			rep.MaxMakespan = out.Makespan
		}
		sum += out.Makespan
		rep.Survived++
	}
	if rep.Survived > 0 {
		rep.MeanMakespan = sum / float64(rep.Survived)
		if baseline > 0 {
			rep.MeanDegradationPct = (rep.MeanMakespan - baseline) / baseline * 100
			rep.MaxDegradationPct = (rep.MaxMakespan - baseline) / baseline * 100
		}
	}
	return rep
}

// WriteText renders the report for the console.
func (r ChaosReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "chaos campaign %q: profile %s, %d seeds from base %d\n",
		r.Name, r.Profile, r.Seeds, r.BaseSeed)
	fmt.Fprintf(w, "  survived: %d/%d\n", r.Survived, r.Seeds)
	if r.Survived > 0 {
		fmt.Fprintf(w, "  makespan: baseline %.6fs, survivors min/mean/max %.6f/%.6f/%.6fs (mean %+.2f%%, max %+.2f%%)\n",
			r.Baseline, r.MinMakespan, r.MeanMakespan, r.MaxMakespan,
			r.MeanDegradationPct, r.MaxDegradationPct)
	}
	for _, o := range r.Outcomes {
		if o.Error != "" {
			fmt.Fprintf(w, "  seed %d failed: %s\n", o.Seed, o.Error)
		}
	}
}
