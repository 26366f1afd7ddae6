// Command fig5 regenerates Figure 5 of the paper: latency-optimal mappings
// of the 512x512 FFT-Hist program under increasing throughput constraints,
// showing the shift from pure data parallelism to a pipeline to replicated
// pipeline modules.
package main

import (
	"flag"
	"fmt"
	"os"

	"fxpar/internal/cliflags"
	"fxpar/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run a reduced-size workload")
	shared := cliflags.Register(flag.CommandLine, "j", "cache", "replay", "monitor", "engine", "chaos")
	flag.Parse()
	c, err := shared.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig5:", err)
		os.Exit(2)
	}
	stopMon, err := c.Start(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig5:", err)
		os.Exit(1)
	}
	defer stopMon()
	cfg := experiments.DefaultFig5()
	if *quick {
		cfg = experiments.QuickFig5()
	}
	cfg.Workers, cfg.CacheDir, cfg.Engine, cfg.Faults, cfg.Replay = c.Workers, c.CacheDir, c.Engine, c.Plan.Machine(), c.Replay
	rows, err := experiments.Fig5(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig5:", err)
		os.Exit(1)
	}
	experiments.PrintFig5(os.Stdout, rows, cfg)
}
