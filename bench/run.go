package main

// One workload run: set-up boots, the end-to-end phase against the daemon,
// and, when tracing, the traced run.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"airct/internal/chase"
)

const (
	setupBoots       = 15
	minSamples       = 1000
	traceMaxRequests = 3000
	// p99Parts is how many consecutive parts of a run's answers
	// latency_p99_ms is the median of the p99s of. A CPU stall on the shared
	// host delays the requests in flight during it, and a few stalls would
	// otherwise set the p99 of a few thousand answers; the median leaves out
	// the parts they fall in.
	p99Parts = 5
)

var workloadNames = []string{"first-contact", "repeat-warm", "exists-search"}

// rssBlocks is the number of blocks after which a workload reads the
// daemon's peak RSS: about 10 s of the seed commit's traffic. Memory grows
// with the requests answered, so it is read after a fixed amount of work,
// not at the end of a fixed time, which would measure the host's speed.
var rssBlocks = map[string]int{"first-contact": 24, "repeat-warm": 250, "exists-search": 24}

// runOptions configure one workload run.
type runOptions struct {
	seed       int64
	seconds    float64
	trace      bool
	work       string // directory for cache files
	bin        string // daemon binary; empty serves in process
	procs      int    // GOMAXPROCS of the bench and the daemon
	maxBlocks  int    // > 0: closed loops stop after this many blocks
	minSamples int
}

func (o runOptions) traceDuration() time.Duration {
	return min(time.Duration(o.seconds*float64(time.Second))/4, 5*time.Second)
}

// workloadResult is one workload's outcome in the results file.
type workloadResult struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Wrong     int      `json:"wrong_verdicts"`
	WrongList []string `json:"wrong,omitempty"`
	MeasuredS float64  `json:"measured_s"`
	// E2E is scaled to the reference host's speed (speed.go); E2ERaw is as
	// measured.
	E2E      metrics   `json:"e2e"`
	E2ERaw   metrics   `json:"e2e_raw"`
	Host     hostSpeed `json:"host"`
	PerLayer metrics   `json:"per_layer,omitempty"`
	spans    []span
}

// healthy reports a run with no wrong verdict and no failed request; any
// other run makes the bench exit 1 after writing its results.
func (r *workloadResult) healthy() bool { return r.Correct && r.Failed == 0 }

// runWorkload runs one workload end to end.
func runWorkload(o runOptions, cat *catalog, wl string) (*workloadResult, error) {
	s, err := newStream(wl, cat, o.seed)
	if err != nil {
		return nil, err
	}
	var all tally
	cfg := targetConfig{bin: o.bin, procs: o.procs}
	if wl == "repeat-warm" {
		cfg.cacheFile = filepath.Join(o.work, wl+".chasecache")
		if err := removeIfExists(cfg.cacheFile); err != nil {
			return nil, err
		}
		// Warm the pool on a first daemon; its SIGTERM writes the snapshot
		// every later boot of this workload starts from.
		err := withTarget(cfg, func(t *target) error {
			c := newClient(t.url)
			defer c.close()
			outs, err := warmUp(c, s)
			all.add(outs)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("pre-warming %s: %w", wl, err)
		}
	}

	sp, err := newSpeedMeter()
	if err != nil {
		return nil, err
	}
	defer sp.close()
	setupStart := time.Now()
	setup, err := setupTimes(cfg, wl, sp)
	if err != nil {
		return nil, err
	}
	setupSlowdown := sp.slowdown(setupStart, time.Now())

	res := &workloadResult{Workload: wl, E2E: metrics{}, E2ERaw: metrics{}, PerLayer: metrics{}}
	var measured []outcome
	err = withTarget(cfg, func(t *target) error {
		c := newClient(t.url)
		defer c.close()
		outs, err := warmUp(c, s)
		all.add(outs)
		if err != nil {
			return err
		}
		st0, err := c.stats()
		if err != nil {
			return err
		}
		var (
			rss     float64
			rssRead bool
			rssErr  error
		)
		readRSS := func() {
			if !rssRead {
				rss, rssErr = peakRSSMB(t.pid)
				rssRead = true
			}
		}
		start := time.Now()
		measured, err = measureClosed(o, c, s, res, sp, readRSS)
		res.MeasuredS = time.Since(start).Seconds()
		if err != nil {
			return err
		}
		st1, err := c.stats()
		if err != nil {
			return err
		}
		if readRSS(); rssErr != nil {
			return rssErr
		}
		res.setE2E("peak_rss_mb", rss, rss, 1)
		statsLayers(st0, st1, existsMS(measured), res.PerLayer)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.Host, err = sp.read(); err != nil {
		return nil, err
	}

	var phase tally
	phase.add(measured)
	all.add(measured)
	res.Attempted, res.Failed = phase.attempted, phase.failed
	res.setE2E("setup_s", median(setup), median(setup)/setupSlowdown, len(setup))
	decided := frac(float64(phase.decided), float64(phase.attempted))
	res.setE2E("decided_frac", decided, decided, phase.attempted)
	responseLayers(measured, res.PerLayer)
	if err := snapshotLayers(cfg.cacheFile, res.PerLayer); err != nil {
		return nil, err
	}

	if o.trace {
		cache := chase.NewCache()
		if wl == "repeat-warm" {
			if cache, _, err = chase.LoadCacheFile(cfg.cacheFile); err != nil {
				return nil, err
			}
		}
		tm, spans, outs, err := tracedRun(traceConfig{
			wl: wl, seed: o.seed, cat: cat, cache: cache,
			duration: o.traceDuration(), maxRequests: traceMaxRequests,
			e2eP50: res.E2ERaw["latency_p50_ms"].Value,
		})
		if err != nil {
			return nil, fmt.Errorf("traced run of %s: %w", wl, err)
		}
		all.add(outs)
		for k, v := range tm {
			res.PerLayer[k] = v
		}
		res.spans = spans
		res.PerLayer.fill(layerDefs)
	}

	res.PerLayer.set(layerDefs, "host.probe_ms", res.Host.ProbeMS, res.Host.Probes)

	res.Wrong, res.WrongList = all.wrong, all.wrongNames
	res.Correct = all.wrong == 0
	return res, nil
}

// setE2E sets an end-to-end metric as measured and as scaled to the
// reference host's speed.
func (r *workloadResult) setE2E(name string, raw, scaled float64, samples int) {
	r.E2ERaw.set(e2eDefs, name, raw, samples)
	r.E2E.set(e2eDefs, name, scaled, samples)
}

// withTarget starts a target, runs f against it and stops it; the target
// must exit cleanly.
func withTarget(cfg targetConfig, f func(*target) error) error {
	t, _, err := startTarget(cfg)
	if err != nil {
		return err
	}
	ferr := f(t)
	return errors.Join(ferr, t.stop())
}

// setupTimes boots the workload's daemon setupBoots times, probing the
// host's speed after each, and returns each boot's spawn-to-healthy time in
// seconds. repeat-warm boots from its snapshot; the others boot cold.
func setupTimes(cfg targetConfig, wl string, sp *speedMeter) ([]float64, error) {
	var out []float64
	for i := 0; i < setupBoots; i++ {
		t, d, err := startTarget(cfg)
		if err != nil {
			return nil, fmt.Errorf("boot %d of %s: %w", i, wl, err)
		}
		if err := t.stop(); err != nil && !diedOfSIGTERM(err) {
			return nil, err
		}
		out = append(out, d.Seconds())
		sp.probe()
	}
	return out, nil
}

// warmUp sends the pool once (repeat-warm) or one block (the others) before
// timing starts, so lazy set-up and runtime warm-up are not measured.
func warmUp(c *client, s *stream) ([]outcome, error) {
	reqs := s.poolRequests()
	if len(reqs) == 0 {
		reqs = s.block()
	}
	outs := make([]outcome, 0, len(reqs))
	for _, r := range reqs {
		o := c.send(r, nil)
		if !o.ok() {
			return outs, fmt.Errorf("warm-up %s %s: status %d: %v", r.endpoint, r.name, o.status, o.err)
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// measureClosed runs a closed-loop workload for o.seconds and sets its
// throughput and latency. readRSS is called after the workload's rssBlocks.
func measureClosed(o runOptions, c *client, s *stream, res *workloadResult, sp *speedMeter, readRSS func()) ([]outcome, error) {
	d := &dispenser{s: s, deadline: time.Now().Add(time.Duration(o.seconds * float64(time.Second))), maxBlocks: o.maxBlocks,
		markAt: rssBlocks[res.Workload], mark: readRSS}
	outs, wall := closedLoop(c, d, sp)

	lat := latencies(outs)
	if len(lat) < o.minSamples {
		return outs, fmt.Errorf("%s: %d latency samples, need at least %d", res.Workload, len(lat), o.minSamples)
	}
	scaled, share, err := sp.scaleLatencies(outs)
	if err != nil {
		return outs, err
	}
	n := float64(len(lat))
	res.setE2E("throughput_rps", n/wall.Seconds(), n/(share*wall.Seconds()), len(lat))
	res.setE2E("latency_p50_ms", median(lat), median(scaled), len(lat))
	res.setE2E("latency_p99_ms", medianOfParts(lat, p99Parts, 0.99), medianOfParts(scaled, p99Parts, 0.99), len(lat))
	return outs, nil
}

// existsMS sums the server time of the successful exists answers.
func existsMS(outs []outcome) float64 {
	var total float64
	for _, o := range outs {
		if o.ok() && o.req.endpoint == epExists {
			total += o.elapsed
		}
	}
	return total
}

// snapshotLayers times chase.LoadCacheFile on the workload's snapshot (the
// median of setupBoots loads) and reports its size; 0 without a snapshot.
func snapshotLayers(path string, m metrics) error {
	var loads []float64
	var size float64
	if path != "" {
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		size = float64(fi.Size())
		for i := 0; i < setupBoots; i++ {
			start := time.Now()
			if _, _, err := chase.LoadCacheFile(path); err != nil {
				return fmt.Errorf("loading %s: %w", path, err)
			}
			loads = append(loads, ms(time.Since(start)))
		}
	}
	m.set(layerDefs, "chase.snapshot.load_ms", median(loads), len(loads))
	m.set(layerDefs, "chase.snapshot.bytes", size, 0)
	return nil
}

func removeIfExists(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
