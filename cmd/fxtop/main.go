// Command fxtop is the live campaign monitor: it attaches to the HTTP
// endpoint an experiment driver exposes with -monitor (table1, fig5, fig6,
// fxbench) and renders a top-style terminal view of every running campaign —
// jobs finished/running/failed, a progress bar, elapsed wall time and an
// ETA — refreshing in place until the campaigns complete or it is
// interrupted. The header identifies the run: the driver's execution engine
// and, when fault injection is active, the chaos plan (seed:profile).
//
// Examples:
//
//	fxbench -monitor auto &          # driver serves http://127.0.0.1:6070
//	fxtop                            # attach and watch
//	fxtop -url http://127.0.0.1:6070 -interval 500ms
//	fxtop -once                      # print one snapshot and exit
//	fxtop -json                      # dump the raw JSON snapshot and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"fxpar/internal/sweep"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fxtop:", err)
	os.Exit(1)
}

// fetch pulls one snapshot from the driver's /snapshot endpoint, returning
// it both decoded and as the raw body; any status but 200 is an error.
func fetch(client *http.Client, url string) (sweep.MonitorSnapshot, []byte, error) {
	var snap sweep.MonitorSnapshot
	resp, err := client.Get(url + "/snapshot")
	if err != nil {
		return snap, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, nil, fmt.Errorf("%s/snapshot: %s", url, resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return snap, nil, err
	}
	return snap, raw, json.Unmarshal(raw, &snap)
}

// allDone reports whether at least one campaign exists and all are finished.
func allDone(s sweep.MonitorSnapshot) bool {
	if len(s.Campaigns) == 0 {
		return false
	}
	for _, c := range s.Campaigns {
		if !c.Done {
			return false
		}
	}
	return true
}

func main() {
	url := flag.String("url", "http://"+sweep.DefaultMonitorAddr, "base URL of the driver's -monitor endpoint")
	interval := flag.Duration("interval", time.Second, "refresh interval")
	once := flag.Bool("once", false, "print one snapshot and exit")
	asJSON := flag.Bool("json", false, "print the raw JSON snapshot and exit")
	flag.Parse()

	client := &http.Client{Timeout: 10 * time.Second}

	for {
		snap, raw, err := fetch(client, *url)
		if err != nil {
			fail(err)
		}
		if *asJSON {
			if _, err := os.Stdout.Write(raw); err != nil {
				fail(err)
			}
			return
		}
		if !*once {
			// Clear the screen and home the cursor, top(1)-style.
			fmt.Print("\x1b[2J\x1b[H")
		}
		fmt.Printf("fxtop — %s\n", *url)
		sweep.RenderText(os.Stdout, snap)
		if *once || allDone(snap) {
			return
		}
		time.Sleep(*interval)
	}
}
