package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pfpl/internal/server"
)

// serveMain runs the HTTP compression service:
//
//	pfpl serve -addr :8080 -max-inflight-bytes 268435456
//
// It serves POST /v1/compress and /v1/decompress (streamed framed format),
// POST /v1/batch (one small field per request), the /v1/objects store,
// GET /healthz, GET /metrics, GET /v1/status (the operator snapshot
// `pfpl top` renders), and GET /debug/traces (sampled request traces;
// -trace-sample and -trace-slow control what is kept). It
// drains gracefully on SIGTERM/SIGINT: the listener closes, healthz flips
// to 503, and in-flight requests get -drain-timeout to finish.
func serveMain(args []string) error {
	fs := flag.NewFlagSet("pfpl serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "compression pool size (0 = one per CPU)")
	budget := fs.Int64("max-inflight-bytes", server.DefaultMaxInflightBytes,
		"in-flight byte budget; saturated requests get 429 + Retry-After")
	maxConcurrent := fs.Int("max-concurrent", 0, "concurrently active request pipelines (0 = 2x CPUs)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request deadline (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget for in-flight requests")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
	quiet := fs.Bool("quiet", false, "disable per-request logging")
	traceSample := fs.Float64("trace-sample", 0.01, "fraction of requests recording a full trace into /debug/traces (0 disables tracing)")
	traceSlow := fs.Duration("trace-slow", 0, "also retain any request slower than this, sampled or not (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	srv := server.New(server.Config{
		Workers:          *workers,
		MaxInflightBytes: *budget,
		MaxConcurrent:    *maxConcurrent,
		RequestTimeout:   *reqTimeout,
		EnablePprof:      *enablePprof,
		Logger:           logger,
		TraceSample:      *traceSample,
		TraceSlow:        *traceSlow,
	})
	defer srv.Close()
	srv.Metrics().Publish("pfpl")

	hs := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "pfpl serve: listening on %s (budget %d bytes)\n", *addr, srv.Admission().Capacity())

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	srv.SetDraining()
	fmt.Fprintln(os.Stderr, "pfpl serve: draining in-flight requests")
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		return fmt.Errorf("drain incomplete after %v: %w", *drainTimeout, err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "pfpl serve: drained, bye")
	return nil
}
