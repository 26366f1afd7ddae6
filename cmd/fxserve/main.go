// Command fxserve is the long-running mapping-as-a-service daemon: it
// wraps internal/serve — optimization, measurement and chaos-sweep
// campaigns over HTTP with content-keyed request dedupe, a bounded fair
// worker pool, and the live campaign monitor embedded on the same port —
// and manages the process concerns: the listen socket (with an ephemeral
// fallback when the default port is taken), and graceful shutdown on
// SIGINT/SIGTERM that drains in-flight campaigns and ends event streams
// cleanly instead of cutting connections mid-frame.
//
//	fxserve                      # listen on 127.0.0.1:6071
//	fxserve -addr :8080 -j 4
//	fxbench -serve http://127.0.0.1:6071 -quick   # a client
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fxpar/internal/machine"
	"fxpar/internal/serve"
	"fxpar/internal/sweep"
)

// defaultAddr is one above the sweep monitor's default so a batch driver
// with -monitor auto and a serving daemon coexist on one host.
const defaultAddr = "127.0.0.1:6071"

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", defaultAddr, "listen address; when the default is taken, fxserve falls back to an ephemeral port")
	j := flag.Int("j", 0, "max concurrently running campaigns and per-campaign simulation workers (0 = all host cores); simulated numbers are identical for every value")
	cache := flag.String("cache", "", "directory for the on-disk cost-table cache, shared with fxbench/table1 ('' disables)")
	replay := flag.String("replay", "", "directory for the skeleton replay store, or 'mem' for in-process only ('' disables replay)")
	engine := flag.String("engine", machine.DefaultEngineName(), "execution engine: goroutine, coop, or coop:N; changes host time only, never a simulated number")
	keep := flag.Int("keep", 0, "finished jobs retained as a response cache (0 = 1024)")
	flag.Parse()

	s, err := serve.New(serve.Options{
		Workers: *j, CacheDir: *cache, ReplayDir: *replay,
		Engine: *engine, KeepDone: *keep,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fxserve:", err)
		return 2
	}
	defer s.Close()
	sweep.SetEngineLabel(*engine)

	ln, err := net.Listen("tcp", *addr)
	if err != nil && *addr == defaultAddr {
		// The default port being taken (a second daemon) must not kill the
		// launch; an explicitly requested address must.
		fmt.Fprintf(os.Stderr, "fxserve: %v; falling back to an ephemeral port\n", err)
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fxserve:", err)
		return 2
	}
	fmt.Printf("fxserve: listening on http://%s\n", ln.Addr())

	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: sweep.ReadHeaderTimeout, IdleTimeout: sweep.IdleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "fxserve: %v: draining\n", sig)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "fxserve:", err)
		return 1
	}

	// Graceful shutdown: stop accepting, let in-flight handlers (and the
	// campaigns they wait on) finish, end SSE streams between frames. The
	// serve.Server close runs first so job waiters and event streams
	// unblock; Shutdown then reaps the connections.
	s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "fxserve: drain deadline passed:", err)
		srv.Close()
		return 1
	}
	fmt.Fprintln(os.Stderr, "fxserve: bye")
	return 0
}
