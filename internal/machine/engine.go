package machine

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Engine is a pluggable execution core: the strategy that runs the simulated
// processors of a Machine on the host. The virtual-time semantics — clock
// advancement, the timestamp max-rule, per-pair FIFO delivery — and the
// inboxes themselves live in the Machine/Proc layer and are identical
// under every engine, so two engines running the same program produce
// byte-identical traces, metrics, and RunStats; an engine only decides *how*
// the host executes the processors (one goroutine each vs a cooperative run
// queue), i.e. what a blocked receiver does until it is woken, and therefore
// only changes host wall-clock.
//
// Engines are implemented inside this package (the interface has unexported
// methods); select one with Goroutine, Coop, or EngineByName and install it
// with Machine.SetEngine before Run.
type Engine interface {
	// Name returns the selector name of the engine ("goroutine", "coop",
	// "coop:4"), as accepted by EngineByName.
	Name() string

	// run executes body on every processor of the arena to completion,
	// spawning host goroutines tree-style (see tree.go). Each processor's
	// panic (if any) is captured into rec; run returns only after every
	// processor has finished or panicked.
	run(m *Machine, procs []Proc, body func(*Proc), rec *panicRecorder)

	// park suspends the calling processor p, which has just parked on src
	// with nothing from src queued (Proc.wait), until wake(p, _) is
	// called. The wake may already have happened when park is entered.
	park(p *Proc, src int)

	// wake resumes a parked (or about-to-park) processor p; at is the
	// virtual clock p resumes at, which a scheduling engine orders by. It is
	// called once per parking, by the depositor or terminating sender
	// that claimed it.
	wake(p *Proc, at float64)
}

// EngineNames lists the accepted -engine selector values.
func EngineNames() []string { return []string{"goroutine", "coop"} }

// EngineByName resolves an -engine flag value: "goroutine" (or "") is the
// preemptive goroutine-per-processor engine, "coop" the cooperative
// run-queue engine on one host worker, and "coop:N" the cooperative engine
// on N host workers. A coop selector may carry a "+shuffle@SEED" suffix
// ("coop+shuffle@7", "coop:4+shuffle@7"): same-clock ready-queue ties are
// then broken by a seeded hash of the processor id instead of by id —
// a deterministic schedule perturbation that flushes out order-dependent
// bugs without changing any virtual-time result.
func EngineByName(name string) (Engine, error) {
	base, shuffled, seed, err := splitShuffle(name)
	if err != nil {
		return nil, err
	}
	switch {
	case base == "" || base == "goroutine":
		if shuffled {
			return nil, fmt.Errorf("machine: engine %q: +shuffle applies to coop engines only", name)
		}
		return Goroutine(), nil
	case base == "coop":
		if shuffled {
			return CoopShuffled(1, seed), nil
		}
		return Coop(1), nil
	case strings.HasPrefix(base, "coop:"):
		w, err := strconv.Atoi(base[len("coop:"):])
		if err != nil || w < 1 {
			return nil, fmt.Errorf("machine: bad coop worker count in engine %q", name)
		}
		if shuffled {
			return CoopShuffled(w, seed), nil
		}
		return Coop(w), nil
	}
	return nil, fmt.Errorf("machine: unknown engine %q (have: %s)", name, strings.Join(EngineNames(), ", "))
}

// splitShuffle strips an optional "+shuffle@SEED" suffix from an engine
// selector.
func splitShuffle(name string) (base string, shuffled bool, seed uint64, err error) {
	base, spec, ok := strings.Cut(name, "+")
	if !ok {
		return name, false, 0, nil
	}
	sstr, found := strings.CutPrefix(spec, "shuffle@")
	if !found {
		return "", false, 0, fmt.Errorf("machine: bad engine modifier %q in %q (want +shuffle@SEED)", spec, name)
	}
	seed, perr := strconv.ParseUint(sstr, 10, 64)
	if perr != nil {
		return "", false, 0, fmt.Errorf("machine: bad shuffle seed in engine %q", name)
	}
	return base, true, seed, nil
}

// defaultEngine is the engine New installs. It honors the FXPAR_ENGINE
// environment variable so a whole test binary (or CI matrix leg) can be run
// under a different execution core without touching any call site.
var defaultEngine = engineFromEnv()

func engineFromEnv() Engine {
	name := os.Getenv("FXPAR_ENGINE")
	e, err := EngineByName(name)
	if err != nil {
		panic(err)
	}
	return e
}

// DefaultEngineName returns the selector name of the engine New installs:
// "goroutine" unless overridden by the FXPAR_ENGINE environment variable.
// Command-line tools use it as their -engine flag default.
func DefaultEngineName() string { return defaultEngine.Name() }
