// Command termcheckd serves the termination-analysis API over HTTP/JSON:
// a long-lived daemon in front of the same decision procedures as the
// termcheck CLI, with ONE shared cross-run chase cache for every request.
//
//	termcheckd [-addr HOST:PORT] [-cache-file PATH] [-cache-save-every D]
//	           [-max-inflight N] [-request-timeout D] [-workers N]
//
// Endpoints: POST /v1/decide (CT^res_∀∀, the flat report or the staged
// cascade), POST /v1/exists (CT^res_∀∃ on the program's database),
// GET /v1/stats (cache / trigger-index / portfolio / serving counters as
// JSON), GET /healthz. Request and response shapes are internal/serve's
// codec; verdicts are pinned bit-identical to in-process analysis by the
// e2e conformance suite.
//
// The shared cache is loaded from -cache-file at startup (a missing file
// starts cold; a corrupt one is reported and ignored), snapshotted back on
// the -cache-save-every cadence and once more on graceful shutdown, so
// warm wins compound across requests AND across daemon restarts.
// Identical concurrent requests are deduplicated onto one underlying
// analysis (singleflight); -max-inflight bounds concurrently executing
// analyses, further ones are shed with 429; -request-timeout (60 s unless
// set) caps each request's wall clock, and a request whose every client
// disconnected is cancelled promptly. Request budgets above the serve
// package's caps are refused with 400. Each analysis runs on its
// request's goroutine; -workers is accepted and ignored.
//
// SIGINT/SIGTERM drain in-flight requests, cancel detached work, write the
// final cache snapshot and exit 0; startup or shutdown failures exit 3
// (matching the CLI's error code).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"airct/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8372", "listen address")
	cacheFile := flag.String("cache-file", "", "persistent cache snapshot: loaded at startup, saved on the -cache-save-every cadence and at shutdown")
	saveEvery := flag.Duration("cache-save-every", 30*time.Second, "background cache snapshot cadence under -cache-file (0 disables the ticker; shutdown still saves)")
	maxInflight := flag.Int("max-inflight", 0, "maximum concurrently executing analyses before requests are shed with 429 (0: 2×GOMAXPROCS)")
	requestTimeout := flag.Duration("request-timeout", time.Minute, "wall-clock cap per request; also the default for requests without timeout-ms (0: unbounded)")
	flag.Int("workers", 1, "ignored: every analysis runs on its request's goroutine (accepted so existing command lines keep working)")
	flag.Parse()
	os.Exit(run(*addr, *cacheFile, *saveEvery, *maxInflight, *requestTimeout))
}

func run(addr, cacheFile string, saveEvery time.Duration, maxInflight int, requestTimeout time.Duration) int {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "termcheckd: "+format+"\n", args...)
	}
	cache := serve.OpenCacheFile(cacheFile, logf)
	var snap *serve.Snapshotter
	if cacheFile != "" {
		snap = serve.NewSnapshotter(cache, cacheFile, saveEvery, logf)
	}
	srv := serve.New(serve.Config{
		Cache:          cache,
		MaxInflight:    maxInflight,
		DefaultTimeout: requestTimeout,
		MaxTimeout:     requestTimeout,
		Snapshot:       snap,
		Logf:           logf,
	})

	// Install the signal handler before the port opens: a SIGTERM that
	// arrives as soon as the address line is out must take the graceful
	// path (drain, final snapshot, exit 0), not the default kill.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fail(err)
	}
	// The resolved address matters under :0 (tests); print it before serving
	// so a parent process can scrape the port.
	fmt.Printf("termcheckd: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	code := 0
	select {
	case sig := <-sigc:
		logf("received %s, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := hs.Shutdown(ctx); err != nil {
			code = fail(err)
		}
		cancel()
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			code = fail(err)
		}
	}
	srv.Close()
	if snap != nil {
		if err := snap.Close(); err != nil {
			code = fail(err)
		}
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "termcheckd:", err)
	return 3
}
