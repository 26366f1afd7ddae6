// Pipeline: FFT-Hist under the three mapping families of Sections 3.2-3.3
// (Figures 2 and 3) — pure data parallelism, a 3-stage pipeline, and
// replicated modules — on the same 12-processor simulated machine, showing
// the throughput/latency trade-off of Figure 5 and verifying that all
// mappings compute identical histograms.
//
// Run with: go run ./examples/pipeline
package main

import (
	"fmt"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
)

func main() {
	cfg := ffthist.Config{N: 64, Sets: 10, Bins: 32}
	mappings := []mapping.Mapping{
		mapping.DataParallel(12),
		ffthist.Pipeline(6, 4, 2),
		{Modules: 2, Stages: []int{6}},
		{Modules: 2, Stages: []int{3, 2, 1}},
	}

	fmt.Printf("FFT-Hist, %dx%d complex, stream of %d data sets, 12 simulated processors\n\n",
		cfg.N, cfg.N, cfg.Sets)
	fmt.Printf("%-40s %12s %12s\n", "mapping", "thr (sets/s)", "latency (s)")

	var ref map[int][]int64
	for _, mp := range mappings {
		res := ffthist.Run(machine.New(12, sim.Paragon()), cfg, mp)
		fmt.Printf("%-40s %12.2f %12.4f\n", mp, res.Stream.Throughput, res.Stream.Latency)
		if ref == nil {
			ref = res.Hists
			continue
		}
		for set, h := range res.Hists {
			for b := range h {
				if h[b] != ref[set][b] {
					fmt.Printf("  !! histogram mismatch at set %d bin %d\n", set, b)
				}
			}
		}
	}
	fmt.Println("\nall mappings computed identical histograms — the task directives")
	fmt.Println("change performance, never semantics (Section 2.2).")
}
