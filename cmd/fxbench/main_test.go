package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

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
