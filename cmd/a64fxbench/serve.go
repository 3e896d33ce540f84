package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"a64fxbench/internal/serve"
)

// requestLogger builds the serve daemon's structured request logger
// from the -log-level / -log-format flags. Level "off" (or "none")
// disables request logging entirely; the default is one JSON object per
// request on stdout, so the log stream is machine-parseable without
// touching the stderr banner.
func requestLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	case "off", "none":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn, error or off)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "json", "":
		return slog.New(slog.NewJSONHandler(os.Stdout, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stdout, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want json or text)", format)
	}
}

// debugServer serves net/http/pprof on its own listener — a separate,
// opt-in address so profiling endpoints are never reachable through the
// API port.
func debugServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{Addr: addr, Handler: mux}
}

// serveCmd runs the sweep-as-a-service daemon: a long-running HTTP/JSON
// API over the unified core.Request descriptor. POST /v1/run, /v1/sweep,
// /v1/trace, /v1/counters and /v1/links accept the same JSON request
// body; GET /v1/healthz is the liveness probe, GET /metrics the
// Prometheus exposition and GET /v1/debug/slow the slow-request flight
// recorder. -addr sets the listen address, -j the concurrent execution
// limit, -queue the backlog before 429s, -log-level/-log-format the
// structured request log and -debug-addr an optional second listener
// with /debug/pprof/. Ctrl-C (or SIGINT) drains in-flight requests and
// exits cleanly.
func serveCmd(ctx context.Context, cfg sweepConfig) error {
	logger, err := requestLogger(cfg.logLevel, cfg.logFormat)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	srv := serve.New(serve.Config{
		Workers:    cfg.jobs,
		QueueDepth: cfg.queue,
		Logger:     logger,
	})
	hs := &http.Server{Addr: cfg.addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	if cfg.debugAddr != "" {
		ds := debugServer(cfg.debugAddr)
		go func() {
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "a64fxbench serve: debug listener: %v\n", err)
			}
		}()
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "a64fxbench serve: pprof on http://%s/debug/pprof/\n", cfg.debugAddr)
	}
	fmt.Fprintf(os.Stderr, "a64fxbench serve: listening on http://%s (POST /v1/run /v1/sweep /v1/trace /v1/counters /v1/links; GET /v1/machines /v1/healthz /v1/debug/slow /metrics)\n", cfg.addr)
	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "a64fxbench serve: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	return nil
}
