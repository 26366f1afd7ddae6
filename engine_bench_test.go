// BenchmarkEngineCampaign measures what the execution engines actually
// differ in: host wall-clock for a campaign of communication-heavy
// simulations. The workload is deliberately machine-layer-dominated (ring
// exchange plus a dissemination barrier every round, almost no compute) so
// the cost being compared is scheduling — wake-channel handoffs through the
// Go scheduler under the goroutine engine vs run-queue handoffs under coop.
//
// Every (P, engine) cell runs the same jobs, and the benchmark asserts the
// virtual makespans are identical across engines before trusting the host
// numbers. Results snapshot to BENCH_engine.json so CI can compare the
// campaign cost across revisions (host-time fields tolerated, virtual
// spot-check exact).
package fxpar_test

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"fxpar/internal/comm"
	"fxpar/internal/group"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
	"fxpar/internal/sweep"
)

// engineBenchEntry is one (machine size, engine) cell of the campaign
// matrix.
type engineBenchEntry struct {
	Procs  int
	Engine string
	// Host-time results (skipped by the CI baseline compare).
	CampaignSeconds float64
	SimsPerSecond   float64
	// Virtual spot check: makespan of job 0, identical across engines and
	// hosts, compared exactly by CI.
	Job0Makespan float64
}

type engineBenchFile struct {
	Jobs    int
	Entries []engineBenchEntry
	// CoopSpeedup256 is the headline number: goroutine campaign seconds
	// divided by coop campaign seconds at P=256 (host time; skipped in the
	// baseline compare).
	CoopSpeedup256 float64
}

// engineCampaignJob is one simulation of the campaign: a neighbour-exchange
// relaxation with a global barrier per iteration. The world group is built
// once and shared (groups are read-only after construction, and in the real
// applications partitions are long-lived), so host time is dominated by the
// machine layer: at P processors each job performs ~16*P*(2+2*log2(P)) message
// operations, and the barrier's dissemination rounds are chains of blocking
// receives — exactly the handoff-heavy regime the engines differ in.
func engineCampaignJob(procs, job int, g *group.Group, eng machine.Engine) float64 {
	m := machine.New(procs, sim.Paragon())
	m.SetEngine(eng)
	st := m.Run(func(p *machine.Proc) {
		r := p.ID()
		for it := 0; it < 16; it++ {
			p.Compute(float64(1+job) * 1e3)
			comm.Send(p, g, (r+1)%procs, []float64{float64(r)})
			comm.Recv[float64](p, g, (r+procs-1)%procs)
			comm.Barrier(p, g)
		}
	})
	return st.MakespanTime()
}

func BenchmarkEngineCampaign(b *testing.B) {
	const jobs = 6
	engines := []machine.Engine{machine.Goroutine(), machine.Coop(1)}
	sizes := []int{64, 256, 1024}

	var entries []engineBenchEntry
	for i := 0; i < b.N; i++ {
		entries = entries[:0]
		// makespans[procs][job] from the first engine; later engines must
		// reproduce them exactly.
		base := make(map[int][]float64, len(sizes))
		for _, procs := range sizes {
			g := group.World(procs)
			for _, eng := range engines {
				// Best of a few campaign repetitions: a single campaign is
				// tens of milliseconds, so one badly-timed GC cycle would
				// dominate the comparison.
				const reps = 3
				campaign := 0.0
				var ms []float64
				for rep := 0; rep < reps; rep++ {
					start := time.Now()
					res := sweep.Map(0, jobs, func(j int) (float64, error) {
						return engineCampaignJob(procs, j, g, eng), nil
					})
					elapsed := time.Since(start).Seconds()
					if rep == 0 || elapsed < campaign {
						campaign = elapsed
					}
					ms = make([]float64, jobs)
					for j, r := range res {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
						ms[j] = r.Value
					}
				}
				if prev, ok := base[procs]; !ok {
					base[procs] = ms
				} else {
					for j := range ms {
						if ms[j] != prev[j] {
							b.Fatalf("P=%d job %d: %s makespan %v != %s makespan %v",
								procs, j, eng.Name(), ms[j], engines[0].Name(), prev[j])
						}
					}
				}
				entries = append(entries, engineBenchEntry{
					Procs:           procs,
					Engine:          eng.Name(),
					CampaignSeconds: campaign,
					SimsPerSecond:   float64(jobs) / campaign,
					Job0Makespan:    ms[0],
				})
			}
		}
	}
	b.StopTimer()

	snap := engineBenchFile{Jobs: jobs, Entries: entries}
	var goro256, coop256 float64
	for _, e := range entries {
		if e.Procs == 256 && e.Engine == "goroutine" {
			goro256 = e.CampaignSeconds
		}
		if e.Procs == 256 && e.Engine == "coop" {
			coop256 = e.CampaignSeconds
		}
	}
	if coop256 > 0 {
		snap.CoopSpeedup256 = goro256 / coop256
		b.ReportMetric(snap.CoopSpeedup256, "coop-speedup-256")
	}

	f, err := os.Create("BENCH_engine.json")
	if err != nil {
		b.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		f.Close()
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
}
