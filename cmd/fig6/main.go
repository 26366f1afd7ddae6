// Command fig6 regenerates Figure 6 of the paper: Airshed speedup curves
// for the data-parallel version (which flattens on serial I/O) and the
// task+data-parallel version with input and output separated onto their own
// processor subgroups.
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
	shared := cliflags.Register(flag.CommandLine, "j", "replay", "monitor", "engine", "chaos")
	flag.Parse()
	c, err := shared.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig6:", err)
		os.Exit(2)
	}
	stopMon, err := c.Start(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig6:", err)
		os.Exit(1)
	}
	defer stopMon()
	cfg := experiments.DefaultFig6()
	if *quick {
		cfg = experiments.QuickFig6()
	}
	cfg.Workers, cfg.Engine, cfg.Faults, cfg.Replay = c.Workers, c.Engine, c.Plan.Machine(), c.Replay
	points := experiments.Fig6(cfg)
	experiments.PrintFig6(os.Stdout, points)
}
