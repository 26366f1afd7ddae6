package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the stability check reads.
type benchmarkSpec struct {
	Command    []string                     `json:"command"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(data, &spec)
}

// runStability is the acceptance check the driver makes, run locally: per
// workload, two interleaved sets (A, B, A, B, ...) of k full runs, each run
// its own process with its own seed. A metric passes when each set's
// interquartile range is within the metric's bound of its median (setup_s is
// exempt, as it is for the driver) and set B's median is no worse than set
// A's by more than the bound. It returns the process exit code.
func runStability(k int) int {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	failed := false
	for _, w := range spec.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*k; i++ {
			out, err := runOnce(spec, w.Name, int64(i+1))
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.Name, i+1, err)
				return 2
			}
			for name, m := range out.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
		}
		fmt.Printf("%s (2 x %d runs)\n", w.Name, k)
		fmt.Printf("  %-12s %12s %12s %8s %8s %8s %6s  %s\n", "metric", "median A", "median B", "B vs A", "iqr A", "iqr B", "bound", "")
		for _, d := range spec.EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			worse := median(b)/median(a) - 1
			if d.Better == "higher" {
				worse = -worse
			}
			ok := worse <= d.Bound
			if d.Name != "setup_s" {
				ok = ok && spread(a) <= d.Bound && spread(b) <= d.Bound
			}
			verdict := "PASS"
			if !ok {
				verdict, failed = "FAIL", true
			}
			fmt.Printf("  %-12s %12.4f %12.4f %+7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				d.Name, median(a), median(b), 100*worse, 100*spread(a), 100*spread(b), 100*d.Bound, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runOnce executes BENCHMARK.json's command for one workload and parses the
// last line of its output.
func runOnce(spec benchmarkSpec, workload string, seed int64) (output, error) {
	args := append(append([]string(nil), spec.Command[1:]...),
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(spec.RunSeconds), "--trace", "0")
	cmd := exec.Command(spec.Command[0], args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return output{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return output{}, err
	}
	if !out.Correct {
		return output{}, fmt.Errorf("%d of %d operations failed", out.Failed, out.Attempted)
	}
	return out, nil
}
