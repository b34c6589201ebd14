package main

// The system under test: a termcheckd process built from the checkout, or,
// for the smoke test, the same server in process behind httptest.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"airct/internal/serve"
)

// Daemon flags fixed by the benchmark: one worker per request and a finite
// per-request deadline, so no request can hold the daemon indefinitely.
const (
	daemonWorkers        = 1
	daemonRequestTimeout = 5 * time.Second
)

// buildDaemon compiles cmd/termcheckd from the checkout at root into dir.
func buildDaemon(root, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "termcheckd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/termcheckd")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building termcheckd: %v\n%s", err, out.String())
	}
	return bin, nil
}

// target is one running server: its base URL, the pid whose memory is
// reported, and how to stop it.
type target struct {
	url  string
	pid  int
	stop func() error
}

// targetConfig selects how a target starts.
type targetConfig struct {
	bin       string // daemon binary; empty serves in process
	procs     int    // GOMAXPROCS of the daemon
	cacheFile string
}

// startTarget starts a server and returns it with its set-up time: from
// spawn to the first /healthz 200.
func startTarget(cfg targetConfig) (*target, time.Duration, error) {
	if cfg.bin == "" {
		return startInProcess(cfg)
	}
	args := []string{"-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(daemonWorkers),
		"-request-timeout", daemonRequestTimeout.String()}
	if cfg.cacheFile != "" {
		// The snapshot is written at shutdown only.
		args = append(args, "-cache-file", cfg.cacheFile, "-cache-save-every", "0")
	}
	cmd := exec.Command(cfg.bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", cfg.procs))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting termcheckd: %w", err)
	}
	waited := make(chan error, 1)
	stop := func() error {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		select {
		case err := <-waited:
			if err != nil {
				return fmt.Errorf("termcheckd exit: %w\n%s", err, stderr.String())
			}
			return nil
		case <-time.After(20 * time.Second):
			_ = cmd.Process.Kill()
			<-waited
			return errors.New("termcheckd did not stop within 20s of SIGTERM")
		}
	}
	addr := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		addr <- strings.TrimSpace(strings.TrimPrefix(line, "termcheckd: listening on "))
		// Wait only after the pipe's read is done, as os/exec requires.
		waited <- cmd.Wait()
	}()
	var url string
	select {
	case a := <-addr:
		url = "http://" + a
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-waited
		return nil, 0, errors.New("termcheckd printed no listen address within 30s")
	}
	if err := awaitHealthy(url); err != nil {
		_ = cmd.Process.Kill()
		<-waited
		return nil, 0, fmt.Errorf("%w\n%s", err, stderr.String())
	}
	return &target{url: url, pid: cmd.Process.Pid, stop: stop}, time.Since(start), nil
}

// diedOfSIGTERM reports whether a stop error is the daemon dying of the
// signal itself. termcheckd answers /healthz before it installs its
// SIGTERM handler, so a SIGTERM sent right after its first healthy answer
// can kill it instead of shutting it down.
func diedOfSIGTERM(err error) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM
}

// startInProcess serves the same configuration as the daemon from this
// process: the smoke test's target, and the traced run's.
func startInProcess(cfg targetConfig) (*target, time.Duration, error) {
	start := time.Now()
	srv, closeSrv := newInProcessServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	if err := awaitHealthy(ts.URL); err != nil {
		ts.Close()
		_ = closeSrv()
		return nil, 0, err
	}
	stop := func() error {
		ts.Close()
		return closeSrv()
	}
	return &target{url: ts.URL, pid: os.Getpid(), stop: stop}, time.Since(start), nil
}

// newInProcessServer mirrors cmd/termcheckd's wiring of serve.New.
func newInProcessServer(cfg targetConfig) (*serve.Server, func() error) {
	cache := serve.OpenCacheFile(cfg.cacheFile, nil)
	var snap *serve.Snapshotter
	if cfg.cacheFile != "" {
		snap = serve.NewSnapshotter(cache, cfg.cacheFile, 0, nil)
	}
	srv := serve.New(serve.Config{
		Cache:          cache,
		DefaultTimeout: daemonRequestTimeout,
		MaxTimeout:     daemonRequestTimeout,
		Workers:        daemonWorkers,
		Snapshot:       snap,
	})
	return srv, func() error {
		srv.Close()
		if snap != nil {
			return snap.Close()
		}
		return nil
	}
}

// awaitHealthy polls /healthz until it answers 200.
func awaitHealthy(url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not healthy within 30s (last error %v)", url, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
