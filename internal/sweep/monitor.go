package sweep

// Campaign instrumentation: when a Monitor is active (see Activate /
// StartMonitor), every MapNamed campaign registers itself and streams
// per-job start/finish counts, so an external observer — the fxtop live
// monitor, or the HTTP endpoints in http.go — can watch a long sweep
// progress instead of staring at a silent terminal.
//
// The instrumentation is strictly an observer: job scheduling, result
// ordering and the simulated outputs are untouched, and with no active
// Monitor the added cost of Map is one atomic load.

import (
	"sync"
	"sync/atomic"
	"time"
)

// Campaign tracks one named MapNamed invocation's progress. All methods are
// nil-safe: a nil *Campaign (no active monitor) does nothing.
type Campaign struct {
	mon   *Monitor
	name  string
	total int
	begun time.Time

	started  atomic.Int64
	finished atomic.Int64
	failed   atomic.Int64
	done     atomic.Bool
	endNanos atomic.Int64 // wall end time (UnixNano) once done
}

func (c *Campaign) jobStarted() {
	if c == nil {
		return
	}
	c.started.Add(1)
	c.mon.Notify()
}

func (c *Campaign) jobFinished(failed bool) {
	if c == nil {
		return
	}
	if failed {
		c.failed.Add(1)
	}
	c.finished.Add(1)
	c.mon.Notify()
}

func (c *Campaign) finish() {
	if c == nil {
		return
	}
	c.endNanos.Store(time.Now().UnixNano())
	c.done.Store(true)
	c.mon.Notify()
}

// CampaignSnapshot is a point-in-time view of one campaign.
type CampaignSnapshot struct {
	Name     string `json:"name"`
	Total    int    `json:"total"`
	Started  int64  `json:"started"`
	Finished int64  `json:"finished"`
	Failed   int64  `json:"failed"`
	// Running is the number of jobs started but not yet finished.
	Running int64 `json:"running"`
	Done    bool  `json:"done"`
	// ElapsedSec is wall time since the campaign began (frozen once done).
	ElapsedSec float64 `json:"elapsedSec"`
	// ETASec estimates remaining wall time from per-job throughput so far;
	// -1 until the first job finishes.
	ETASec float64 `json:"etaSec"`
}

func (c *Campaign) snapshot(now time.Time) CampaignSnapshot {
	s := CampaignSnapshot{
		Name:     c.name,
		Total:    c.total,
		Started:  c.started.Load(),
		Finished: c.finished.Load(),
		Failed:   c.failed.Load(),
		Done:     c.done.Load(),
		ETASec:   -1,
	}
	s.Running = s.Started - s.Finished
	end := now
	if s.Done {
		end = time.Unix(0, c.endNanos.Load())
	}
	s.ElapsedSec = end.Sub(c.begun).Seconds()
	if s.Done {
		s.ETASec = 0
	} else if s.Finished > 0 {
		perJob := s.ElapsedSec / float64(s.Finished)
		s.ETASec = perJob * float64(int64(s.Total)-s.Finished)
	}
	return s
}

// MonitorSnapshot is a point-in-time view of every campaign the process has
// run while the monitor was active.
type MonitorSnapshot struct {
	UptimeSec float64 `json:"uptimeSec"`
	// Engine is the machine execution engine the process runs its
	// simulations under ("" when the driver never declared one); see
	// SetEngineLabel.
	Engine string `json:"engine,omitempty"`
	// Chaos is the active fault-injection plan ("seed:profile"; "" when the
	// process runs healthy); see SetChaosLabel. Surfacing it in the snapshot
	// lets a postmortem reader of an fxtop capture identify the scenario
	// without digging through driver flags.
	Chaos     string             `json:"chaos,omitempty"`
	Campaigns []CampaignSnapshot `json:"campaigns"`
	// Telemetry is the live observability self-accounting of the process
	// (sink cost share, sample rates, dropped-event estimate); nil when the
	// driver never registered a source. See SetTelemetrySource.
	Telemetry *TelemetrySnapshot `json:"telemetry,omitempty"`
}

// TelemetrySnapshot is the monitor's view of the process's observability
// cost, fed by trace.OverheadBudget through SetTelemetrySource. The sweep
// package deliberately holds strings and scalars only — it must not import
// the trace package, which would drag machine internals into every driver
// that just wants campaign progress bars.
type TelemetrySnapshot struct {
	// Line is the compact one-line budget rendering (sink share percent,
	// per-sink breakdown, sample rates, dropped count) fxtop prints verbatim.
	Line string `json:"line"`
	// SinkSharePct is the sinks' estimated share of host wall time.
	SinkSharePct float64 `json:"sinkSharePct"`
	// SampleRates is the active sampling configuration ("compute=1/64 ..."
	// or "unsampled").
	SampleRates string `json:"sampleRates,omitempty"`
	// DroppedEvents counts events the sampler has thinned away so far; the
	// unsampled estimate of any kept count is count / rate.
	DroppedEvents int64 `json:"droppedEvents,omitempty"`
}

// telemetrySource is polled at Snapshot time; same process-global
// atomic.Pointer pattern as the engine/chaos labels.
var telemetrySource atomic.Pointer[func() TelemetrySnapshot]

// SetTelemetrySource registers a callback that yields the process's current
// telemetry self-accounting; nil unregisters. Drivers with an active
// trace.OverheadBudget call it once so fxtop and the HTTP snapshot show the
// live overhead-budget line.
func SetTelemetrySource(fn func() TelemetrySnapshot) {
	if fn == nil {
		telemetrySource.Store(nil)
		return
	}
	telemetrySource.Store(&fn)
}

// engineLabel is the process-global engine name surfaced in snapshots.
var engineLabel atomic.Pointer[string]

// SetEngineLabel records which machine execution engine this process runs
// its simulation campaigns under, so monitor consumers (fxtop, the HTTP
// endpoints) can tell a goroutine campaign from a coop one. Drivers call it
// once after flag parsing; it is an observer-facing label only.
func SetEngineLabel(name string) { engineLabel.Store(&name) }

// chaosLabel is the process-global fault-plan label surfaced in snapshots.
var chaosLabel atomic.Pointer[string]

// SetChaosLabel records the fault-injection plan (fault.Plan.String(),
// "seed:profile") the process injects into its simulations, so monitor
// consumers can tell a chaos campaign from a healthy one at a glance.
// Drivers call it once after parsing a non-empty -chaos flag; it is an
// observer-facing label only.
func SetChaosLabel(plan string) { chaosLabel.Store(&plan) }

// Monitor aggregates campaign progress for one process. Create with
// NewMonitor (or StartMonitor, which also serves it over HTTP) and install
// with Activate.
type Monitor struct {
	Changes // wakes /events streams on every campaign state change

	start time.Time

	closeOnce sync.Once
	done      chan struct{}

	mu        sync.Mutex
	campaigns []*Campaign
	keep      int
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{start: time.Now(), done: make(chan struct{})}
}

// Close marks the monitor as shut down: Done()'s channel closes, which tells
// every event-stream subscriber (the /events SSE handlers) to finish its
// current frame and end the stream cleanly. Campaign accounting keeps
// working after Close — only the streams end. Idempotent.
func (m *Monitor) Close() {
	m.closeOnce.Do(func() { close(m.done) })
}

// Done returns a channel closed when the monitor shuts down. Event-stream
// handlers select on it so a server Shutdown drains them promptly instead of
// aborting connections mid-frame.
func (m *Monitor) Done() <-chan struct{} { return m.done }

// SetKeep bounds the completed campaigns the monitor retains (0, the
// default, retains everything — right for one-shot experiment drivers).
// Long-running servers set a cap so thousands of requests don't grow the
// snapshot without bound; running campaigns are never dropped.
func (m *Monitor) SetKeep(n int) {
	m.mu.Lock()
	m.keep = n
	m.pruneLocked()
	m.mu.Unlock()
}

// pruneLocked drops the oldest finished campaigns until the list is within
// keep. Callers hold m.mu.
func (m *Monitor) pruneLocked() {
	if m.keep <= 0 {
		return
	}
	for len(m.campaigns) > m.keep {
		dropped := false
		for i, c := range m.campaigns {
			if c.done.Load() {
				m.campaigns = append(m.campaigns[:i], m.campaigns[i+1:]...)
				dropped = true
				break
			}
		}
		if !dropped {
			return // everything left is still running
		}
	}
}

// begin registers a new campaign. Nil-safe.
func (m *Monitor) begin(name string, total int) *Campaign {
	if m == nil {
		return nil
	}
	if name == "" {
		name = "(campaign)"
	}
	c := &Campaign{mon: m, name: name, total: total, begun: time.Now()}
	m.mu.Lock()
	m.campaigns = append(m.campaigns, c)
	m.pruneLocked()
	m.mu.Unlock()
	m.Notify()
	return c
}

// Snapshot returns the current view of all campaigns, in begin order.
func (m *Monitor) Snapshot() MonitorSnapshot {
	now := time.Now()
	m.mu.Lock()
	cs := append([]*Campaign(nil), m.campaigns...)
	m.mu.Unlock()
	out := MonitorSnapshot{UptimeSec: now.Sub(m.start).Seconds()}
	if lbl := engineLabel.Load(); lbl != nil {
		out.Engine = *lbl
	}
	if lbl := chaosLabel.Load(); lbl != nil {
		out.Chaos = *lbl
	}
	if src := telemetrySource.Load(); src != nil {
		t := (*src)()
		out.Telemetry = &t
	}
	for _, c := range cs {
		out.Campaigns = append(out.Campaigns, c.snapshot(now))
	}
	return out
}

// active is the process-global monitor MapNamed reports to; nil (the
// default) disables all instrumentation.
var active atomic.Pointer[Monitor]

// Activate installs m as the process-global campaign monitor (nil to
// disable). Returns the previous monitor.
func Activate(m *Monitor) *Monitor {
	return active.Swap(m)
}

// ActiveMonitor returns the installed monitor, or nil.
func ActiveMonitor() *Monitor { return active.Load() }

// MapNamed is Map with a campaign name for the active monitor: identical
// scheduling and results, plus per-job start/finish accounting when a
// Monitor is installed.
func MapNamed[T any](name string, workers, n int, fn func(i int) (T, error)) []Result[T] {
	camp := ActiveMonitor().begin(name, n) // nil-safe: nil monitor → nil campaign
	defer camp.finish()
	results := make([]Result[T], n)
	if n == 0 {
		return results
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				camp.jobStarted()
				runJob(i, fn, &results[i])
				camp.jobFinished(results[i].Err != nil)
			}
		}()
	}
	wg.Wait()
	return results
}
