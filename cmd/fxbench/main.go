// Command fxbench regenerates the paper's entire evaluation section in one
// run: Table 1, Figure 5, Figure 6, and the nested-parallelism studies
// (quicksort scaling and Barnes-Hut worklist/memory behaviour of Figures 4
// and 7 / Section 5.3).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"fxpar/internal/apps/barneshut"
	"fxpar/internal/apps/qsort"
	"fxpar/internal/cliflags"
	"fxpar/internal/experiments"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// benchFile is the machine-readable Table 1 snapshot: enough context to
// compare virtual-time numbers across revisions of this repository.
type benchFile struct {
	Procs int
	Sets  int
	Quick bool
	Rows  []experiments.Table1Row
}

// writeJSON dumps a report to path as indented JSON.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the selected mode printing
// to stdout, and returns the process exit code. It creates no file unless
// -json (or a -cache/-replay directory) asks for one.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run reduced-size workloads")
	jsonPath := fs.String("json", "", "also write the report of whichever mode runs (Table 1, or the -chaossweep/-whatifsweep/-replaysweep report) as machine-readable JSON to this file")
	shared := cliflags.Register(fs, "j", "cache", "replay", "monitor", "engine", "chaos")
	chaosSweep := fs.Int("chaossweep", 0, "standalone mode: fan an FFT-Hist chaos scenario across N seeds (derived from the -chaos seed; profile from -chaos, default havoc) and report survival and latency degradation")
	whatIfSweep := fs.Bool("whatifsweep", false, "standalone mode: capture one FFT-Hist pipeline run as a communication skeleton, re-cost it across a machine-parameter grid and per-span virtual speedups, cross-check against full simulations, and report re-cost vs simulation throughput")
	replaySweep := fs.Bool("replaysweep", false, "standalone mode: one traced FFT-Hist capture (healthy + chaotic), a machine-parameter campaign answered entirely by analytic replay with bitwise cross-checks against fresh simulations, and a replay-backed mapping search across machine variants")
	serveURL := fs.String("serve", "", "client mode: run the Table 1 campaigns against a running fxserve daemon at this base URL instead of simulating locally (with -chaossweep N, the chaos campaign runs remotely too)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "fxbench:", err)
		return code
	}
	// snapshot writes the mode's report to the -json path, if one was given,
	// and returns the exit code.
	snapshot := func(report any) int {
		if *jsonPath == "" {
			return 0
		}
		if err := writeJSON(*jsonPath, report); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
		return 0
	}
	c, err := shared.Resolve()
	if err != nil {
		return fail(2, err)
	}
	eng, plan := c.Engine, c.Plan

	// Client mode: the campaigns run inside an fxserve daemon; this process
	// only posts requests and renders responses.
	if *serveURL != "" {
		return serveMain(*serveURL, *quick, *chaosSweep, plan, stdout, stderr)
	}

	// Standalone chaos-campaign mode: one scenario, N derived seeds, a
	// deterministic survival/degradation report (identical for every -j and
	// engine).
	if *chaosSweep > 0 {
		ccfg := experiments.DefaultChaos()
		if *quick {
			ccfg = experiments.QuickChaos()
		}
		ccfg.Seeds, ccfg.Workers, ccfg.Engine = *chaosSweep, c.Workers, eng
		if plan != nil {
			ccfg.Base, ccfg.Prof = plan.Seed, plan.Prof
		}
		rep := experiments.Chaos(ccfg)
		rep.WriteText(stdout)
		return snapshot(rep)
	}

	// Standalone what-if mode: capture one skeleton, re-cost it across the
	// parameter grid, cross-check against full simulations. Everything but
	// the Host* throughput fields is deterministic.
	if *whatIfSweep {
		wcfg := experiments.DefaultWhatIf()
		if *quick {
			wcfg = experiments.QuickWhatIf()
		}
		wcfg.Workers, wcfg.Engine = c.Workers, eng
		rep, err := experiments.WhatIf(wcfg)
		if err != nil {
			return fail(1, err)
		}
		rep.WriteText(stdout)
		if !rep.IdentityExact {
			return fail(1, errors.New("skeleton determinism violated — re-cost at recorded parameters deviates from the recorded makespan"))
		}
		return snapshot(rep)
	}

	// Standalone replay-campaign mode: capture once, answer the whole
	// machine-parameter campaign and mapping search by analytic DAG replay,
	// and cross-check a sample of cells against fresh simulations bitwise.
	// Everything but the Host* throughput fields is deterministic.
	if *replaySweep {
		rcfg := experiments.DefaultReplay()
		if *quick {
			rcfg = experiments.QuickReplay()
		}
		rcfg.Workers, rcfg.Engine = c.Workers, eng
		if c.Replay != nil {
			rcfg.StoreDir = c.Replay.Store.Dir()
		}
		if plan != nil {
			rcfg.ChaosSeed, rcfg.ChaosProfile = plan.Seed, plan.Prof.Name
		}
		rep, err := experiments.Replay(rcfg)
		if err != nil {
			return fail(1, err)
		}
		rep.WriteText(stdout)
		if !rep.IdentityExact || !rep.ChaosIdentityExact {
			return fail(1, errors.New("replay determinism violated — identity replay deviates from the recorded run"))
		}
		if rep.Mismatches > 0 {
			return fail(1, fmt.Errorf("%d replay cross-check(s) deviate bitwise from fresh simulations", rep.Mismatches))
		}
		return snapshot(rep)
	}

	stopMon, err := c.Start(stdout)
	if err != nil {
		return fail(1, err)
	}
	defer stopMon()

	t1 := experiments.DefaultTable1()
	f5 := experiments.DefaultFig5()
	f6 := experiments.DefaultFig6()
	if *quick {
		t1, f5, f6 = experiments.QuickTable1(), experiments.QuickFig5(), experiments.QuickFig6()
	}
	t1.Workers, t1.CacheDir, t1.Engine, t1.Faults, t1.Replay = c.Workers, c.CacheDir, eng, plan.Machine(), c.Replay
	f5.Workers, f5.CacheDir, f5.Engine, f5.Faults, f5.Replay = c.Workers, c.CacheDir, eng, plan.Machine(), c.Replay
	f6.Workers, f6.Engine, f6.Faults, f6.Replay = c.Workers, eng, plan.Machine(), c.Replay

	rows := experiments.Table1(t1)
	experiments.PrintTable1(stdout, rows, t1.Procs)
	if code := snapshot(benchFile{Procs: t1.Procs, Sets: t1.Sets, Quick: t1.Quick, Rows: rows}); code != 0 {
		return code
	}
	fmt.Fprintln(stdout)
	f5rows, err := experiments.Fig5(f5)
	if err != nil {
		return fail(1, err)
	}
	experiments.PrintFig5(stdout, f5rows, f5)
	fmt.Fprintln(stdout)
	experiments.PrintFig6(stdout, experiments.Fig6(f6))
	fmt.Fprintln(stdout)

	// Section 3.4 / Figure 4: nested task-parallel quicksort scaling.
	fmt.Fprintln(stdout, "Quicksort (Figure 4): nested task parallel sort of synthetic keys")
	n := 1 << 17
	procCounts := []int{1, 4, 16, 64}
	if *quick {
		n = 1 << 13
		procCounts = []int{1, 4, 8}
	}
	var t1p float64
	for _, p := range procCounts {
		qm := machine.New(p, sim.Paragon())
		qm.SetEngine(eng)
		qm.SetFaults(plan.Machine())
		res := qsort.Run(qm, n, 42)
		if !res.Sorted {
			fmt.Fprintf(stdout, "  %3d procs: SORT FAILED\n", p)
			continue
		}
		if p == 1 {
			t1p = res.Makespan
		}
		fmt.Fprintf(stdout, "  %3d procs: %.4f s  (speedup %.2f)\n", p, res.Makespan, t1p/res.Makespan)
	}
	fmt.Fprintln(stdout)

	// Section 5.3 / Figure 7: Barnes-Hut worklist and partial-tree memory.
	fmt.Fprintln(stdout, "Barnes-Hut (Figure 7): worklist and partial-tree behaviour, uniform cube")
	bhN, bhK := 8192, 11 // k deep enough that replicated remote cells are ~4 particles
	bhProcs := []int{1, 8, 64}
	if *quick {
		bhN, bhK = 1024, 8
		bhProcs = []int{1, 8}
	}
	for _, p := range bhProcs {
		cfg := barneshut.Config{N: bhN, Theta: 1.0, Seed: 13, K: bhK}
		bm := machine.New(p, sim.Paragon())
		bm.SetEngine(eng)
		bm.SetFaults(plan.Machine())
		res := barneshut.Run(bm, cfg)
		fmt.Fprintf(stdout, "  %3d procs: %.4f s, max worklist %d (n=%d), max partial tree %d nodes (full %d)\n",
			p, res.Makespan, res.MaxWorklist, bhN, res.MaxPartialNodes, 2*bhN-1)
	}
	return 0
}
