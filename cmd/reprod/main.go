// Command reprod is the fleet-simulation daemon: a resident process that
// serves the versioned control API (internal/controlapi) over HTTP,
// schedules fleet and campaign runs from many tenants onto shared resident
// engines, and keeps characterization caches and the content-addressed
// result store warm across runs — so a resubmitted spec costs store
// lookups, not simulation.
//
// cmd/fleet and cmd/campaign talk to it via their -addr flag and behave
// byte-identically to their in-process mode; any HTTP client can drive the
// API directly (see docs/daemon.md).
//
// SIGTERM/SIGINT triggers a graceful drain: no new runs are admitted,
// queued runs are cancelled, in-flight runs stop between control intervals
// and finalize with partial reports, attached streams receive their final
// done events, and the process exits 0.
//
// Usage:
//
//	reprod                          # listen on 127.0.0.1:7070, default store
//	reprod -listen :7070 -workers 8
//	reprod -store /var/cache/repro -max-active 2 -queue-depth 16
//	reprod -history-limit 128 -history-ttl 15m   # bound finished-run retention
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/version"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	if err := run(ctx, stop, os.Args[1:], os.Stderr); err != nil {
		cli.Exit("reprod", err, "")
	}
}

// run is main's testable body: parse flags, serve the control API until
// the context is cancelled (or the listener fails), then drain.
// restoreSignals is invoked as the drain begins so a second SIGTERM/SIGINT
// during a stuck drain kills the process instead of being swallowed.
func run(ctx context.Context, restoreSignals func(), args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("reprod", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", "127.0.0.1:7070", "address to listen on")
		storeDir   = fs.String("store", store.DefaultDir, "content-addressed result store directory")
		noCache    = fs.Bool("no-cache", false, "disable the result store (compute every cell)")
		workers    = fs.Int("workers", 0, "default per-run worker pool size (0 = GOMAXPROCS)")
		maxActive  = fs.Int("max-active", server.DefaultMaxActive, "global limit on concurrently executing runs")
		queueDepth = fs.Int("queue-depth", server.DefaultQueueDepth, "per-tenant queue capacity (full queues get 429)")
		histLimit  = fs.Int("history-limit", server.DefaultHistoryLimit, "max finished runs retained for reports/reattach (negative = unlimited)")
		histTTL    = fs.Duration("history-ttl", server.DefaultHistoryTTL, "how long finished runs are retained (negative = no age limit)")
		drainWait  = fs.Duration("drain-timeout", 30*time.Second, "how long a shutdown waits for in-flight runs to finalize")
	)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}

	cfg := server.Config{
		Workers:      *workers,
		MaxActive:    *maxActive,
		QueueDepth:   *queueDepth,
		HistoryLimit: *histLimit,
		HistoryTTL:   *histTTL,
	}
	if !*noCache {
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		cfg.Store = st
	}
	srv := server.New(cfg)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	httpSrv := srv.HTTPServer()
	storeNote := "store off"
	if cfg.Store != nil {
		storeNote = "store " + cfg.Store.Dir()
	}
	fmt.Fprintf(stderr, "reprod: listening on %s (%s, %s)\n", ln.Addr(), version.Engine, storeNote)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-ctx.Done():
	}
	restoreSignals()
	fmt.Fprintln(stderr, "reprod: draining (cancelling runs, flushing store writes)...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(stderr, "reprod:", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(stderr, "reprod: shutdown:", err)
	}
	fmt.Fprintln(stderr, "reprod: drained, exiting")
	return nil
}
