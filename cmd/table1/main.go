// Command table1 regenerates Table 1 of the paper: data-parallel vs best
// task+data parallel throughput and latency for the three sensor programs
// on a simulated 64-node machine.
package main

import (
	"flag"
	"fmt"
	"os"

	"fxpar/internal/cliflags"
	"fxpar/internal/experiments"
	"fxpar/internal/sim"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size workloads")
	procs := flag.Int("procs", 0, "override processor count")
	sets := flag.Int("sets", 0, "override stream length")
	model := flag.String("model", "paragon", "cost model: paragon or workstation")
	shared := cliflags.Register(flag.CommandLine, "j", "cache", "replay", "monitor", "engine", "chaos")
	flag.Parse()
	cfg := experiments.DefaultTable1()
	if *quick {
		cfg = experiments.QuickTable1()
	}
	if *procs > 0 {
		cfg.Procs = *procs
	}
	if *sets > 0 {
		cfg.Sets = *sets
	}
	switch *model {
	case "paragon":
		cfg.Cost = sim.Paragon()
	case "workstation":
		cfg.Cost = sim.Workstation()
	default:
		fmt.Fprintf(os.Stderr, "unknown cost model %q\n", *model)
		os.Exit(2)
	}
	c, err := shared.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(2)
	}
	cfg.Workers, cfg.CacheDir, cfg.Engine, cfg.Faults, cfg.Replay = c.Workers, c.CacheDir, c.Engine, c.Plan.Machine(), c.Replay
	stopMon, err := c.Start(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
	defer stopMon()
	rows := experiments.Table1(cfg)
	experiments.PrintTable1(os.Stdout, rows, cfg.Procs)
}
