package sweep

// Regression tests for the monitor HTTP layer's shutdown, bind and
// slow-client behaviour: stopping a monitor must end live SSE streams cleanly
// (no truncated frame, no leaked handler goroutines), -monitor auto must
// survive the default port being taken by another driver, and a client that
// never finishes its request is cut off while event streams live on.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestStopMonitorEndsSSECleanly: with a live /events subscriber attached,
// stop() must end the stream between frames — every data: line the client
// received parses as a complete snapshot and the body ends on a frame
// boundary — and must not leak the handler goroutine. Formerly stop()
// called srv.Close(), which aborted the handler mid-write and abandoned its
// subscription.
func TestStopMonitorEndsSSECleanly(t *testing.T) {
	before := runtime.NumGoroutine()

	m, url, stop, err := StartMonitor("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	MapNamed("sse-shutdown", 2, 3, func(i int) (int, error) { return i, nil })

	resp, err := http.Get(url + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type readResult struct {
		body []byte
		err  error
	}
	got := make(chan readResult, 1)
	go func() {
		b, err := io.ReadAll(resp.Body) // blocks until the server ends the stream
		got <- readResult{b, err}
	}()

	// Let the subscriber receive at least the initial frame, then stop.
	time.Sleep(50 * time.Millisecond)
	stop()

	var res readResult
	select {
	case res = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after stop()")
	}
	if res.err != nil {
		t.Fatalf("stream ended with transport error: %v", res.err)
	}
	if len(res.body) == 0 {
		t.Fatal("no SSE data received before stop")
	}
	if !bytes.HasSuffix(res.body, []byte("\n\n")) {
		t.Errorf("stream truncated mid-frame: body ends %q", tail(res.body, 40))
	}
	frames := 0
	for _, line := range strings.Split(string(res.body), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("unexpected SSE line %q", line)
		}
		var snap MonitorSnapshot
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
			t.Fatalf("truncated or malformed frame %q: %v", line, err)
		}
		frames++
	}
	if frames == 0 {
		t.Error("no complete data frames in stream")
	}

	// The monitor's Done channel is closed and the handler goroutines are
	// gone (allow the runtime a moment to reap them).
	select {
	case <-m.Done():
	default:
		t.Error("monitor Done() not closed after stop")
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after stop", before, runtime.NumGoroutine())
}

// TestSlowClientCutOffSSELives: a connection that never finishes its request
// line is closed by the server once ReadHeaderTimeout passes, while an
// /events stream opened before it keeps delivering frames afterwards — the
// limits bound request headers and idle keep-alives, never a live stream.
func TestSlowClientCutOffSSELives(t *testing.T) {
	_, url, stop, err := StartMonitor("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	resp, err := http.Get(url + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var frames atomic.Int64
	streamEnded := make(chan struct{})
	go func() {
		defer close(streamEnded)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data: ") {
				frames.Add(1)
			}
		}
	}()

	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /snapshot HT")); err != nil {
		t.Fatal(err)
	}
	// ReadAll returns cleanly once the server closes its side; hitting our
	// own deadline instead means the server would have waited forever.
	conn.SetReadDeadline(start.Add(ReadHeaderTimeout + 5*time.Second)) //nolint:errcheck // a TCP conn accepts deadlines
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept a stalled connection past ReadHeaderTimeout: %v", err)
	}
	if waited := time.Since(start); waited < ReadHeaderTimeout-time.Second {
		t.Errorf("stalled connection closed after %v, before ReadHeaderTimeout %v", waited, ReadHeaderTimeout)
	}

	// The stream outlives the cutoff: frames keep arriving (1 s heartbeat).
	seen := frames.Load()
	deadline := time.Now().Add(5 * time.Second)
	for frames.Load() == seen && time.Now().Before(deadline) {
		select {
		case <-streamEnded:
			t.Fatal("/events stream ended with the stalled connection")
		case <-time.After(50 * time.Millisecond):
		}
	}
	if frames.Load() == seen {
		t.Errorf("/events delivered no frame after the cutoff (%d before)", seen)
	}
	resp.Body.Close()
	<-streamEnded
}

// sseStream is one Changes.ServeEvents stream over a real connection, with a
// call counter as its snapshot. Frames arrive whole on frames, which closes
// at EOF; err then reports a transport error or a body that ended mid-frame.
type sseStream struct {
	Changes
	final, stop chan struct{}
	// entered closes when the first snapshot is taken; that snapshot returns
	// only once release closes.
	entered, release chan struct{}
	// frames holds more than a 100-notification burst could yield even
	// without coalescing, so the reader never blocks on the test.
	frames chan string
	err    error
}

// openStream starts a server and a client on one stream. At the end of the
// test it closes the client's idle connections and checks that no goroutine
// of the stream is left.
func openStream(t *testing.T, hold bool) *sseStream {
	s := &sseStream{
		final: make(chan struct{}), stop: make(chan struct{}),
		entered: make(chan struct{}), release: make(chan struct{}),
		frames: make(chan string, 256),
	}
	if !hold {
		close(s.release)
	}
	var calls atomic.Int64
	snapshot := func() any {
		n := calls.Add(1)
		if n == 1 {
			close(s.entered)
			<-s.release
		}
		return n
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.ServeEvents(w, r, snapshot, s.final, s.stop)
	}))
	before := runtime.NumGoroutine()
	client := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(func() {
		client.CloseIdleConnections()
		defer ts.Close()
		defer ts.CloseClientConnections()
		for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			if runtime.NumGoroutine() <= before {
				return
			}
		}
		t.Errorf("goroutines leaked: %d before the stream, %d after", before, runtime.NumGoroutine())
	})
	go func() {
		defer close(s.frames)
		resp, err := client.Get(ts.URL)
		if err != nil {
			s.err = err
			return
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		var frame []byte
		for {
			line, err := br.ReadString('\n')
			frame = append(frame, line...)
			if err != nil {
				if err != io.EOF || len(frame) > 0 {
					s.err = fmt.Errorf("stream ended mid-frame after %q: %v", frame, err)
				}
				return
			}
			if line == "\n" {
				s.frames <- string(frame)
				frame = frame[:0]
			}
		}
	}()
	return s
}

// next returns the stream's next frame.
func (s *sseStream) next(t *testing.T) string {
	t.Helper()
	select {
	case f, ok := <-s.frames:
		if !ok {
			t.Fatalf("stream ended early: %v", s.err)
		}
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("no frame within 5 s")
		return ""
	}
}

// rest returns every frame up to EOF, failing on a dirty end.
func (s *sseStream) rest(t *testing.T) []string {
	t.Helper()
	var out []string
	timeout := time.After(5 * time.Second)
	for {
		select {
		case f, ok := <-s.frames:
			if !ok {
				if s.err != nil {
					t.Fatal(s.err)
				}
				return out
			}
			out = append(out, f)
		case <-timeout:
			t.Fatalf("stream did not end within 5 s (%d frames so far)", len(out))
		}
	}
}

// TestServeEventsEndings holds the one SSE writer to its contract: a burst
// of notifications coalesces, closing final yields exactly one more frame
// and then a clean EOF, and closing stop ends the stream between frames with
// no extra frame. No goroutine of a stream outlives it.
func TestServeEventsEndings(t *testing.T) {
	t.Run("coalesce", func(t *testing.T) {
		s := openStream(t, true)
		<-s.entered // subscribed, taking the first snapshot
		for i := 0; i < 100; i++ {
			s.Notify()
		}
		close(s.release)
		got := []string{s.next(t)}
		// Everything the burst produces arrives well inside 200 ms; the 1 s
		// heartbeat may add one frame at most.
		for quiet := time.After(200 * time.Millisecond); quiet != nil; {
			select {
			case f, ok := <-s.frames:
				if !ok {
					t.Fatalf("stream ended during the burst: %v", s.err)
				}
				got = append(got, f)
			case <-quiet:
				quiet = nil
			}
		}
		if len(got) > 3 {
			t.Errorf("100 notifications yielded %d frames, want at most 3: %q", len(got), got)
		}
		close(s.final)
		s.rest(t)
	})
	t.Run("final", func(t *testing.T) {
		s := openStream(t, false)
		if f := s.next(t); f != "data: 1\n\n" {
			t.Fatalf("first frame %q", f)
		}
		close(s.final)
		if rest := s.rest(t); len(rest) != 1 || rest[0] != "data: 2\n\n" {
			t.Errorf("after final: %q, want exactly one frame \"data: 2\"", rest)
		}
	})
	t.Run("stop", func(t *testing.T) {
		s := openStream(t, false)
		s.next(t)
		close(s.stop)
		if rest := s.rest(t); len(rest) != 0 {
			t.Errorf("after stop: %q, want no frame", rest)
		}
	})
}

func tail(b []byte, n int) []byte {
	if len(b) <= n {
		return b
	}
	return b[len(b)-n:]
}

// TestMonitorAutoFallsBackWhenPortTaken: two drivers running with
// -monitor auto must both start. The test takes the default port itself and
// asserts the flag still yields a working monitor on an ephemeral port, with
// a warning naming the failure.
func TestMonitorAutoFallsBackWhenPortTaken(t *testing.T) {
	ln, err := net.Listen("tcp", DefaultMonitorAddr)
	if err == nil {
		// We hold the default port for the duration of the test; the flag
		// must fall back. (If something else already holds it, the port is
		// taken all the same and the fallback path is still what runs.)
		defer ln.Close()
	}

	var warn strings.Builder
	url, stop, err := monitorFromFlag("auto", &warn)
	if err != nil {
		t.Fatalf("monitorFromFlag(auto) with busy port: %v", err)
	}
	defer stop()
	if url == "" || strings.HasSuffix(url, DefaultMonitorAddr) {
		t.Fatalf("fallback url = %q, want an ephemeral port", url)
	}
	if !strings.Contains(warn.String(), "falling back") {
		t.Errorf("no fallback warning printed; warn = %q", warn.String())
	}

	// The run really started: the fallback monitor serves snapshots.
	resp, err := http.Get(url + "/snapshot")
	if err != nil {
		t.Fatalf("fallback monitor not serving: %v", err)
	}
	defer resp.Body.Close()
	var snap MonitorSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("fallback snapshot: %v", err)
	}
}

// TestMonitorExplicitAddrStillFails: only "auto" falls back — a user who
// named a specific address gets the bind error, not a silent port swap.
func TestMonitorExplicitAddrStillFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var warn strings.Builder
	_, _, err = monitorFromFlag(ln.Addr().String(), &warn)
	if err == nil {
		t.Fatal("explicit busy address did not error")
	}
	if warn.Len() != 0 {
		t.Errorf("explicit address printed fallback warning: %q", warn.String())
	}
}

// TestFmtDurEdgeCases covers the compact duration renderer over its three
// formats and the degenerate inputs the progress view feeds it.
func TestFmtDurEdgeCases(t *testing.T) {
	cases := []struct {
		sec  float64
		want string
	}{
		{0, "0.0s"},
		{-1, "?"},
		{-0.001, "?"},
		{0.04, "0.0s"},
		{1.25, "1.2s"},
		{59.9, "59.9s"},
		{60, "1m00s"},
		{125, "2m05s"},
		{3599, "59m59s"},
		{3600, "1h00m"},
		{3725, "1h02m"},
		{7343, "2h02m"},
	}
	for _, c := range cases {
		if got := fmtDur(c.sec); got != c.want {
			t.Errorf("fmtDur(%g) = %q, want %q", c.sec, got, c.want)
		}
	}
}

// TestRenderTextStalledETA: an unfinished campaign whose ETA estimate reads
// exactly 0 is stalled, not about to finish — the view must say "eta ?"
// rather than "eta 0.0s" forever. A genuinely advancing ETA still renders,
// and a retried campaign with Finished transiently above Total must not
// overflow the bar.
func TestRenderTextStalledETA(t *testing.T) {
	var sb strings.Builder
	RenderText(&sb, MonitorSnapshot{
		Campaigns: []CampaignSnapshot{
			{Name: "stalled", Total: 8, Started: 8, Finished: 4, Running: 4, ElapsedSec: 10, ETASec: 0},
			{Name: "fresh", Total: 8, Started: 1, Finished: 0, Running: 1, ElapsedSec: 1, ETASec: -1},
			{Name: "moving", Total: 8, Started: 6, Finished: 4, Running: 2, ElapsedSec: 2, ETASec: 3.5},
			{Name: "retried", Total: 4, Started: 6, Finished: 6, Running: 0, ElapsedSec: 2, ETASec: 0.5},
		},
	})
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	find := func(name string) string {
		for _, l := range lines {
			if strings.HasPrefix(l, name) {
				return l
			}
		}
		t.Fatalf("no line for %q in:\n%s", name, out)
		return ""
	}
	if l := find("stalled"); !strings.Contains(l, "eta ?") || strings.Contains(l, "eta 0.0s") {
		t.Errorf("stalled campaign line = %q, want eta ?", l)
	}
	if l := find("fresh"); !strings.Contains(l, "eta ?") {
		t.Errorf("fresh campaign line = %q, want eta ?", l)
	}
	if l := find("moving"); !strings.Contains(l, "eta 3.5s") {
		t.Errorf("moving campaign line = %q, want eta 3.5s", l)
	}
	l := find("retried")
	if n := strings.Count(l, "="); n > 30 {
		t.Errorf("retried campaign bar overflows: %d fill chars in %q", n, l)
	}
}

// TestMonitorKeepPrunesDoneCampaigns: a long-running server caps retained
// campaigns; finished ones age out oldest-first, running ones survive.
func TestMonitorKeepPrunesDoneCampaigns(t *testing.T) {
	m := NewMonitor()
	m.SetKeep(3)
	prev := Activate(m)
	defer Activate(prev)

	for i := 0; i < 5; i++ {
		MapNamed("done-campaign", 1, 1, func(int) (int, error) { return 0, nil })
	}
	// A still-running campaign must never be pruned, even at the cap.
	release := make(chan struct{})
	started := make(chan struct{})
	go MapNamed("running-campaign", 1, 1, func(int) (int, error) {
		close(started)
		<-release
		return 0, nil
	})
	<-started
	MapNamed("last", 1, 1, func(int) (int, error) { return 0, nil })

	snap := m.Snapshot()
	if len(snap.Campaigns) > 3 {
		t.Errorf("kept %d campaigns, want <= 3: %+v", len(snap.Campaigns), snap.Campaigns)
	}
	foundRunning := false
	for _, c := range snap.Campaigns {
		if c.Name == "running-campaign" {
			foundRunning = true
		}
	}
	if !foundRunning {
		t.Errorf("running campaign pruned: %+v", snap.Campaigns)
	}
	close(release)
}
