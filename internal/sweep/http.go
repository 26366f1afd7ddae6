package sweep

// HTTP exposure of the campaign monitor, consumed by cmd/fxtop or any
// curl/browser:
//
//	GET /snapshot  — one MonitorSnapshot as JSON
//	GET /events    — server-sent events: one JSON snapshot per state change
//	                 (coalesced), plus a 1 s heartbeat so ETAs keep moving
//
// StartMonitor binds a listener, installs the monitor as the process-global
// campaign observer, and returns the base URL — which the -monitor flag of
// the experiment drivers prints so fxtop can attach.
//
// Changes.ServeEvents is the one SSE writer of the repo: /events here and
// fxserve's /jobs/{id}/events differ only in the snapshot and in how the
// stream ends.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"
)

// DefaultMonitorAddr is where experiment drivers bind when -monitor is given
// without an address.
const DefaultMonitorAddr = "127.0.0.1:6070"

// Slow-client limits of the HTTP servers this repo starts (the monitor here,
// the fxserve daemon): a connection must deliver its request headers within
// ReadHeaderTimeout and may sit idle between requests for IdleTimeout. There
// is deliberately no write timeout: /events streams live as long as a run.
const (
	ReadHeaderTimeout = 5 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// ServeMux returns the monitor's HTTP handler, for embedding in an existing
// server.
func (m *Monitor) ServeMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/snapshot", m.handleSnapshot)
	mux.HandleFunc("/events", m.handleEvents)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		RenderText(w, m.Snapshot())
	})
	return mux
}

func (m *Monitor) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m.Snapshot()) //nolint:errcheck // client gone is not our error
}

func (m *Monitor) handleEvents(w http.ResponseWriter, r *http.Request) {
	m.ServeEvents(w, r, func() any { return m.Snapshot() }, nil, m.done)
}

// Changes is a coalescing change broadcaster: Notify wakes every live
// subscriber, and a burst of notifications while a subscriber is busy costs
// it one wakeup. The zero value is ready; the subscriber set is made on the
// first subscription, so an unwatched owner's Notify allocates nothing.
type Changes struct {
	mu   sync.Mutex
	subs map[chan struct{}]struct{}
}

// Notify wakes every subscriber; a wakeup already pending absorbs this one.
func (c *Changes) Notify() {
	c.mu.Lock()
	for ch := range c.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	c.mu.Unlock()
}

// subscribe registers a one-slot wakeup channel; the returned func
// unregisters it.
func (c *Changes) subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	c.mu.Lock()
	if c.subs == nil {
		c.subs = make(map[chan struct{}]struct{})
	}
	c.subs[ch] = struct{}{}
	c.mu.Unlock()
	return ch, func() {
		c.mu.Lock()
		delete(c.subs, ch)
		c.mu.Unlock()
	}
}

// ServeEvents streams snapshot() as server-sent events: one "data: <json>"
// frame on connect, one per coalesced Notify and one per 1 s heartbeat.
// When final closes it writes one last frame and returns, so the client
// reads the end state and then a clean EOF. When stop closes (the server is
// shutting down) or the client leaves, it returns between frames, so no
// client ever sees a truncated data: line and http.Server.Shutdown drains
// instead of waiting on an endless stream. A nil final never fires.
func (c *Changes) ServeEvents(w http.ResponseWriter, r *http.Request, snapshot func() any, final, stop <-chan struct{}) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	ch, cancel := c.subscribe()
	defer cancel()
	heartbeat := time.NewTicker(time.Second)
	defer heartbeat.Stop()
	send := func() bool {
		js, err := json.Marshal(snapshot())
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", js); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for send() {
		select {
		case <-ch:
		case <-heartbeat.C:
		case <-final:
			send()
			return
		case <-stop:
			// A stream whose final state arrived with the stop is still
			// owed its last frame.
			select {
			case <-final:
				send()
			default:
			}
			return
		case <-r.Context().Done():
			return
		}
	}
}

// StartMonitor creates a Monitor, serves it on addr (DefaultMonitorAddr when
// empty; use ":0" for an ephemeral port), and installs it as the
// process-global campaign observer. The returned stop func deactivates the
// monitor and shuts the server down gracefully: live /events subscribers see
// the monitor close, finish their current frame, and end the stream cleanly
// before the listener goes away (srv.Close() is only the last resort for a
// connection that never observes the close within the drain deadline).
func StartMonitor(addr string) (m *Monitor, url string, stop func(), err error) {
	if addr == "" {
		addr = DefaultMonitorAddr
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", nil, fmt.Errorf("sweep: monitor listen %s: %w", addr, err)
	}
	m = NewMonitor()
	srv := &http.Server{Handler: m.ServeMux(), ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
	go srv.Serve(ln) //nolint:errcheck // closed on stop
	prev := Activate(m)
	stop = func() {
		Activate(prev)
		m.Close() // subscribers end their streams between frames
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close() // drain deadline passed: cut stragglers loose
		}
	}
	return m, "http://" + ln.Addr().String(), stop, nil
}

// MonitorFromFlag interprets the experiment drivers' shared -monitor flag:
// "" leaves monitoring off (no-op stop), "auto" binds DefaultMonitorAddr,
// anything else is a listen address. Callers print the returned URL so
// fxtop users know where to attach.
//
// "auto" is a convenience, not a demand for one specific port: when the
// default address is already bound (typically a second driver also run with
// -monitor auto), the experiment run must not die over it — the monitor
// falls back to an ephemeral port with a printed warning, and the returned
// URL says where it actually listens.
func MonitorFromFlag(value string) (url string, stop func(), err error) {
	return monitorFromFlag(value, os.Stderr)
}

// monitorFromFlag is MonitorFromFlag with an injectable warning sink for
// tests.
func monitorFromFlag(value string, warn io.Writer) (url string, stop func(), err error) {
	if value == "" {
		return "", func() {}, nil
	}
	auto := value == "auto"
	if auto {
		value = DefaultMonitorAddr
	}
	_, url, stop, err = StartMonitor(value)
	if err != nil && auto {
		fmt.Fprintf(warn, "sweep: monitor: %v; falling back to an ephemeral port\n", err)
		_, url, stop, err = StartMonitor("127.0.0.1:0")
	}
	return url, stop, err
}

// RenderText renders a snapshot as the fxtop terminal view: one line per
// campaign with a progress bar, throughput and ETA.
func RenderText(w io.Writer, s MonitorSnapshot) {
	fmt.Fprintf(w, "campaign monitor  up %s", fmtDur(s.UptimeSec))
	if s.Engine != "" {
		fmt.Fprintf(w, "  engine %s", s.Engine)
	}
	if s.Chaos != "" {
		fmt.Fprintf(w, "  chaos %s", s.Chaos)
	}
	fmt.Fprintln(w)
	if s.Telemetry != nil {
		fmt.Fprintf(w, "telemetry: %s\n", s.Telemetry.Line)
	}
	if len(s.Campaigns) == 0 {
		fmt.Fprintln(w, "(no campaigns yet)")
		return
	}
	wn := len("campaign")
	for _, c := range s.Campaigns {
		if len(c.Name) > wn {
			wn = len(c.Name)
		}
	}
	const barW = 30
	for _, c := range s.Campaigns {
		frac := 0.0
		if c.Total > 0 {
			frac = float64(c.Finished) / float64(c.Total)
		}
		fill := int(frac * barW)
		if fill > barW {
			fill = barW
		}
		if fill < 0 {
			fill = 0
		}
		bar := make([]byte, barW)
		for i := range bar {
			if i < fill {
				bar[i] = '='
			} else {
				bar[i] = ' '
			}
		}
		// An unfinished campaign with a non-positive ETA has no usable
		// estimate: negative means "no job finished yet", and exactly 0
		// means the estimate stopped advancing (a stalled or retried
		// campaign) — printing "eta 0.0s" forever would claim imminent
		// completion that never comes.
		status := "eta ?"
		if c.Done {
			status = "done"
		} else if c.ETASec > 0 {
			status = fmt.Sprintf("eta %s", fmtDur(c.ETASec))
		}
		fmt.Fprintf(w, "%-*s [%s] %d/%d  run %d  fail %d  %s  %s\n",
			wn, c.Name, bar, c.Finished, c.Total, c.Running, c.Failed,
			fmtDur(c.ElapsedSec), status)
	}
}

// fmtDur renders seconds compactly (1.2s, 3m05s, 2h10m).
func fmtDur(sec float64) string {
	if sec < 0 {
		return "?"
	}
	d := time.Duration(sec * float64(time.Second))
	switch {
	case d < time.Minute:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d < time.Hour:
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	default:
		return fmt.Sprintf("%dh%02dm", int(d.Hours()), int(d.Minutes())%60)
	}
}
