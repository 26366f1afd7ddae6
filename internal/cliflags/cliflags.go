// Package cliflags declares, once, the campaign flags the batch drivers share
// (-j -cache -replay -monitor -engine -chaos) and resolves them into the
// configuration a simulation campaign runs under. A command registers the
// subset it takes, then calls Resolve (validate every value; exit code 2 on
// error by convention) and Start (process-wide set-up; exit code 1).
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"fxpar/internal/fault"
	"fxpar/internal/machine"
	"fxpar/internal/mapping"
	"fxpar/internal/skeleton"
	"fxpar/internal/sweep"
)

// Flags holds the registered flags' values; a flag that was not registered
// reads as its default.
type Flags struct {
	j                                     int
	cache, replay, monitor, engine, chaos string
}

// Register declares the named flags (of j, cache, replay, monitor, engine,
// chaos) on fs.
func Register(fs *flag.FlagSet, names ...string) *Flags {
	f := &Flags{engine: machine.DefaultEngineName()}
	for _, name := range names {
		switch name {
		case "j":
			fs.IntVar(&f.j, name, 0, "max concurrent simulations (0 = all host cores); output is identical for every value")
		case "cache":
			fs.StringVar(&f.cache, name, "", "directory for the on-disk cost-table cache ('' disables)")
		case "replay":
			fs.StringVar(&f.replay, name, "", "directory for the skeleton store: simulations whose skeleton it holds are answered by analytic DAG replay instead of re-simulation ('' disables)")
		case "monitor":
			fs.StringVar(&f.monitor, name, "", "serve live campaign progress over HTTP on this address for fxtop ('auto' = "+sweep.DefaultMonitorAddr+")")
		case "engine":
			fs.StringVar(&f.engine, name, f.engine, "execution engine: goroutine, coop, or coop:N; changes host time only, never a simulated number")
		case "chaos":
			fs.StringVar(&f.chaos, name, "", "inject deterministic faults into the simulated runs: seed[:profile] (profiles: "+strings.Join(fault.ProfileNames(), " ")+"; default "+fault.DefaultProfile+")")
		default:
			panic("cliflags: no shared flag -" + name)
		}
	}
	return f
}

// Campaign is what the shared flags resolve to.
type Campaign struct {
	Workers  int                    // -j
	CacheDir string                 // -cache
	Engine   machine.Engine         // -engine
	Plan     *fault.Plan            // -chaos (nil: healthy; Plan.Machine() is nil-safe)
	Replay   *mapping.ReplayOptions // -replay (nil: off)

	monitor string
}

// Resolve validates the flag values and builds the campaign configuration.
// It has no side effect.
func (f *Flags) Resolve() (Campaign, error) {
	c := Campaign{Workers: f.j, CacheDir: f.cache, monitor: f.monitor}
	var err error
	if c.Engine, err = machine.EngineByName(f.engine); err != nil {
		return c, err
	}
	if c.Plan, err = fault.Parse(f.chaos); err != nil {
		return c, err
	}
	if f.replay != "" {
		c.Replay = &mapping.ReplayOptions{Store: skeleton.NewStore(f.replay)}
	}
	return c, nil
}

// Start does the process-wide set-up of a campaign driver: it labels the
// sweep monitor's snapshots with the engine and chaos plan, starts the
// -monitor server, and prints the monitor and chaos banners to stdout. The
// returned stop function shuts the monitor down.
func (c Campaign) Start(stdout io.Writer) (stop func(), err error) {
	sweep.SetEngineLabel(c.Engine.Name())
	if c.Plan != nil {
		sweep.SetChaosLabel(c.Plan.String())
	}
	url, stop, err := sweep.MonitorFromFlag(c.monitor)
	if err != nil {
		return nil, err
	}
	if url != "" {
		fmt.Fprintf(stdout, "campaign monitor: %s/snapshot (fxtop -url %s)\n", url, url)
	}
	if c.Plan != nil {
		fmt.Fprintf(stdout, "chaos: injecting faults with plan %s\n", c.Plan)
	}
	return stop, nil
}
