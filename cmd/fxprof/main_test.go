package main

import (
	"flag"
	"math"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

// TestBadSizeExitsWithError: a data-set size the program cannot run — a
// radar gate count or FFT-Hist edge that is not a power of two, under a
// fixed mapping or -auto, or a negative -n — ends fxprof with a non-zero
// exit and an error line, not a panic. The test binary re-runs itself as
// fxprof with the arguments after "--".
func TestBadSizeExitsWithError(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"fxprof"}, args...)
		flag.CommandLine = flag.NewFlagSet("fxprof", flag.ExitOnError)
		main()
		return
	}
	for _, args := range [][]string{
		{"-app", "radar", "-n", "100", "-stages", "2,2,2,2"},
		{"-app", "ffthist", "-n", "100"},
		{"-app", "radar", "-n", "100", "-auto", "-procs", "8"},
		{"-app", "stereo", "-n", "-1"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestBadSizeExitsWithError$", "--", "-out", ""}, args...)...)
		out, err := cmd.CombinedOutput()
		if _, exited := err.(*exec.ExitError); !exited || strings.Contains(string(out), "panic:") || !strings.Contains(string(out), "fxprof: ") {
			t.Errorf("fxprof %s: err %v, output:\n%s", strings.Join(args, " "), err, out)
		}
	}
}

// TestParseFactors pins the strict parse: valid lists round-trip, and
// malformed input — above all empty segments from stray or trailing
// commas — fails with an error that names the problem instead of a
// generic strconv complaint.
func TestParseFactors(t *testing.T) {
	good := []struct {
		in   string
		want []float64
	}{
		{"1", []float64{1}},
		{"0.5,1,2", []float64{0.5, 1, 2}},
		{" 0.25 , 4 ", []float64{0.25, 4}},
		{"1e-3,1e3", []float64{1e-3, 1e3}},
	}
	for _, g := range good {
		got, err := parseFactors(g.in)
		if err != nil {
			t.Errorf("parseFactors(%q): unexpected error %v", g.in, err)
			continue
		}
		if !reflect.DeepEqual(got, g.want) {
			t.Errorf("parseFactors(%q) = %v, want %v", g.in, got, g.want)
		}
	}

	bad := []struct {
		in   string
		want string // substring the error must contain
	}{
		{"", "empty factor list"},
		{"   ", "empty factor list"},
		{"1,2,", "empty factor at position 3"},
		{",1,2", "empty factor at position 1"},
		{"1,,2", "empty factor at position 2"},
		{"1, ,2", "empty factor at position 2"},
		{"1,x", "invalid factor"},
		{"0,1", "invalid factor"},
		{"-2", "invalid factor"},
		{"NaN", "invalid factor"},
		{"Inf", "invalid factor"},
	}
	for _, b := range bad {
		got, err := parseFactors(b.in)
		if err == nil {
			t.Errorf("parseFactors(%q) = %v, want error containing %q", b.in, got, b.want)
			continue
		}
		if !strings.Contains(err.Error(), b.want) {
			t.Errorf("parseFactors(%q) error = %q, want it to contain %q", b.in, err, b.want)
		}
	}
}

// TestParseStages mirrors TestParseFactors for the -stages list.
func TestParseStages(t *testing.T) {
	good := []struct {
		in   string
		want []int
	}{
		{"6", []int{6}},
		{"2,2,2", []int{2, 2, 2}},
		{" 16 , 8 , 8 ", []int{16, 8, 8}},
	}
	for _, g := range good {
		got, err := parseStages(g.in)
		if err != nil {
			t.Errorf("parseStages(%q): unexpected error %v", g.in, err)
			continue
		}
		if !reflect.DeepEqual(got, g.want) {
			t.Errorf("parseStages(%q) = %v, want %v", g.in, got, g.want)
		}
	}

	bad := []struct {
		in   string
		want string
	}{
		{"", "empty stage list"},
		{"  ", "empty stage list"},
		{"2,2,", "empty stage size at position 3"},
		{",2", "empty stage size at position 1"},
		{"2,,2", "empty stage size at position 2"},
		{"2,a", "invalid stage size"},
		{"0", "invalid stage size"},
		{"-1,2", "invalid stage size"},
		{"2.5", "invalid stage size"},
	}
	for _, b := range bad {
		got, err := parseStages(b.in)
		if err == nil {
			t.Errorf("parseStages(%q) = %v, want error containing %q", b.in, got, b.want)
			continue
		}
		if !strings.Contains(err.Error(), b.want) {
			t.Errorf("parseStages(%q) error = %q, want it to contain %q", b.in, err, b.want)
		}
	}
}

// FuzzParseFactors: no input makes parseFactors panic, and an accepted list
// is non-empty with every factor finite and positive.
func FuzzParseFactors(f *testing.F) {
	for _, seed := range []string{"1.25,1.5,2,4", "0.25,0.5,1,2,4", "", ",", "1,,2", "1e308,1e309", "-0", "NaN", "+Inf", "0x1p-2", " 3 ", "1_000"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := parseFactors(s)
		if err != nil {
			return
		}
		if len(got) == 0 {
			t.Fatalf("parseFactors(%q) accepted an empty list", s)
		}
		for _, v := range got {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Fatalf("parseFactors(%q) accepted %v", s, v)
			}
		}
	})
}

// FuzzParseStages: no input makes parseStages panic, and an accepted list
// is non-empty with every stage size positive.
func FuzzParseStages(f *testing.F) {
	for _, seed := range []string{"2,2,2", "6", "", ",", "2,,2", "0", "-1", "+3", "99999999999999999999", " 4 , 2 "} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := parseStages(s)
		if err != nil {
			return
		}
		if len(got) == 0 {
			t.Fatalf("parseStages(%q) accepted an empty list", s)
		}
		for _, v := range got {
			if v < 1 {
				t.Fatalf("parseStages(%q) accepted %d", s, v)
			}
		}
	})
}
