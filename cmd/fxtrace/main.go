// Command fxtrace runs FFT-Hist under the data-parallel and the pipelined
// mapping with execution tracing enabled and renders virtual-time Gantt
// charts — making the pipelining that minimal processor subsets enable
// (Section 4) directly visible: under the pipeline mapping the three stage
// subgroups' compute bands overlap in steady state.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/cliflags"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/trace"
)

// sanitizeLabel converts a mapping label like "pipeline(2,2,2)" into a
// filename-safe token ("pipeline-2-2-2"): runs of characters outside
// [A-Za-z0-9._-] collapse into single dashes, trimmed at the ends.
func sanitizeLabel(label string) string {
	var sb strings.Builder
	dash := false
	for _, r := range label {
		safe := r == '.' || r == '_' || r == '-' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if safe {
			sb.WriteRune(r)
			dash = false
		} else if !dash {
			sb.WriteByte('-')
			dash = true
		}
	}
	return strings.Trim(sb.String(), "-")
}

func main() {
	n := flag.Int("n", 64, "FFT-Hist array edge (power of two)")
	sets := flag.Int("sets", 6, "stream length")
	width := flag.Int("width", 100, "gantt width in characters")
	chrome := flag.String("chrome", "", "also write a Chrome trace-event JSON file (open in chrome://tracing or Perfetto)")
	shared := cliflags.Register(flag.CommandLine, "engine", "chaos")
	flag.Parse()
	c, err := shared.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fxtrace:", err)
		os.Exit(2)
	}
	eng, plan := c.Engine, c.Plan

	cfg := ffthist.Config{N: *n, Sets: *sets, Bins: 32}
	procs := 6

	for _, tc := range []struct {
		label string
		mp    mapping.Mapping
	}{
		{"data-parallel(6)", mapping.DataParallel(procs)},
		{"pipeline(2,2,2)", ffthist.Pipeline(2, 2, 2)},
	} {
		// The Gantt needs the full event log (Collector); utilization comes
		// from the streaming sink, which aggregates the same run online.
		col := &trace.Collector{}
		util := trace.NewUtilSink(procs)
		m := machine.New(procs, sim.Paragon())
		m.SetEngine(eng)
		m.SetTracer(trace.Tee(col, util))
		m.SetFaults(plan.Machine())
		res := ffthist.Run(m, cfg, tc.mp)
		fmt.Printf("=== %s: %.2f sets/s, latency %.4f s ===\n", tc.label,
			res.Stream.Throughput, res.Stream.Latency)
		trace.Gantt(os.Stdout, col, procs, *width)
		fmt.Println()
		util.Snapshot().WriteText(os.Stdout)
		fmt.Println()
		if *chrome != "" {
			name := *chrome + "." + sanitizeLabel(tc.label) + ".json"
			f, err := os.Create(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := trace.WriteChromeTrace(f, col); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", name)
		}
	}
	fmt.Println("In the pipeline chart, rows 0-1 (colffts), 2-3 (rowffts) and 4-5 (hist)")
	fmt.Println("work on different data sets at the same virtual time: that staggered")
	fmt.Println("overlap is the task parallelism the minimal-subset assignment preserves.")
}
