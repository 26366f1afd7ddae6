package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"fxpar/internal/machine"
)

func parse(t *testing.T, names []string, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, names...)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestResolve: defaults resolve to a healthy default-engine campaign with
// replay off; every value lands in its field; a bad -engine or -chaos is an
// error before anything starts; a flag that was not registered is not
// declared on the set.
func TestResolve(t *testing.T) {
	all := []string{"j", "cache", "replay", "monitor", "engine", "chaos"}
	c, err := parse(t, all).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers != 0 || c.CacheDir != "" || c.Plan != nil || c.Replay != nil || c.Engine.Name() != machine.DefaultEngineName() {
		t.Errorf("defaults resolved to %+v", c)
	}

	dir := t.TempDir()
	c, err = parse(t, all, "-j", "3", "-cache", "cdir", "-replay", dir, "-engine", "coop:2", "-chaos", "7").Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers != 3 || c.CacheDir != "cdir" || c.Engine.Name() != "coop:2" ||
		c.Plan == nil || !strings.HasPrefix(c.Plan.String(), "7:") || c.Replay == nil || c.Replay.Store.Dir() != dir {
		t.Errorf("flags resolved to %+v", c)
	}

	for _, bad := range [][]string{{"-engine", "warp"}, {"-chaos", "x"}, {"-chaos", "7:nosuchprofile"}} {
		if _, err := parse(t, all, bad...).Resolve(); err == nil {
			t.Errorf("%v resolved without error", bad)
		}
	}

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Register(fs, "engine", "chaos")
	if err := fs.Parse([]string{"-j", "2"}); err == nil {
		t.Error("-j parsed on a set that did not register it")
	}
}

// TestStartBanners: Start prints the chaos banner (and no monitor banner
// when -monitor is unset) and hands back a stop function.
func TestStartBanners(t *testing.T) {
	c, err := parse(t, []string{"monitor", "chaos"}, "-chaos", "7:havoc").Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	stop, err := c.Start(&out)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if got, want := out.String(), "chaos: injecting faults with plan 7:havoc\n"; got != want {
		t.Errorf("banners = %q, want %q", got, want)
	}
}
