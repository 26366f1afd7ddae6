package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fxpar/internal/apps/ffthist"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/sim"
	"fxpar/internal/skeleton"
	"fxpar/internal/trace"
)

// write creates a file for the standalone-mode tests.
func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWritesOnlyTheJSONPath: every simulating mode leaves the working
// directory untouched unless -json names a file, and then writes exactly that
// file — valid JSON, announced on stdout.
func TestWritesOnlyTheJSONPath(t *testing.T) {
	orig, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(orig) //nolint:errcheck // restoring the test's own cwd
	ls := func(dir string) []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	for _, mode := range [][]string{
		{"-quick"},
		{"-quick", "-chaossweep", "3"},
		{"-quick", "-whatifsweep"},
		{"-quick", "-replaysweep"},
	} {
		t.Run(strings.Join(mode, " "), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.Chdir(dir); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr strings.Builder
			if code := run(mode, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
			}
			if got := ls(dir); len(got) != 0 {
				t.Errorf("without -json the run created %v", got)
			}
			if strings.Contains(stdout.String(), "wrote ") {
				t.Errorf("without -json stdout announces a file:\n%s", stdout.String())
			}

			stdout.Reset()
			if code := run(append(mode, "-json", "out.json"), &stdout, &stderr); code != 0 {
				t.Fatalf("-json: exit code %d, stderr: %s", code, stderr.String())
			}
			if got := ls(dir); len(got) != 1 || got[0] != "out.json" {
				t.Errorf("with -json out.json the directory holds %v", got)
			}
			data, err := os.ReadFile("out.json")
			if err != nil {
				t.Fatal(err)
			}
			if !json.Valid(data) {
				t.Errorf("out.json is not valid JSON:\n%s", data)
			}
			if !strings.Contains(stdout.String(), "wrote out.json\n") {
				t.Errorf("stdout does not announce the file:\n%s", stdout.String())
			}
		})
	}
}

// TestSkeletonsMainExitCodes pins the -skeletons contract: 0 when the two
// skeletons are identical, 1 when attribution finds movement, 2 when a file
// is missing, malformed, or fails its content-key check.
func TestSkeletonsMainExitCodes(t *testing.T) {
	dir := t.TempDir()

	capture := func(sets int) string {
		col := &trace.Collector{}
		m := machine.New(8, sim.Paragon())
		m.SetTracer(col)
		ffthist.Run(m, ffthist.Config{N: 32, Sets: sets, Bins: 16},
			mapping.Mapping{Modules: 1, Stages: []int{4, 2, 2}})
		sk, err := skeleton.FromEvents(sim.Paragon(), col.Events())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("sets%d.json", sets))
		if err := sk.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := capture(4)
	cur := capture(6)
	bad := write(t, dir, "bad.json", `{"format": 1, "key": "fxskel-0000000000000000"}`)
	missing := filepath.Join(dir, "nope.json")

	cases := []struct {
		name     string
		spec     string
		wantCode int
		wantOut  string
	}{
		{"identical", base + ":" + base, 0, "identical"},
		{"changed", base + ":" + cur, 1, "spans that moved"},
		{"missing", missing + ":" + base, 2, ""},
		{"bad key", bad + ":" + base, 2, ""},
		{"bad spec", base, 2, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := skeletonsMain(tc.spec, &stdout, &stderr)
			if code != tc.wantCode {
				t.Errorf("exit code = %d, want %d (stderr: %s)", code, tc.wantCode, stderr.String())
			}
			if tc.wantOut != "" && !strings.Contains(stdout.String(), tc.wantOut) {
				t.Errorf("stdout %q does not contain %q", stdout.String(), tc.wantOut)
			}
		})
	}
}
